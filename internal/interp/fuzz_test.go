package interp_test

import (
	"regexp"
	"testing"

	"semfeed/internal/interp"
	"semfeed/internal/java/ast"
	"semfeed/internal/java/parser"
)

// ptrPat matches the %p component Format renders for arrays ("[I@0x...").
// Pointer values legitimately differ between two runs, so differential
// comparison normalizes them.
var ptrPat = regexp.MustCompile(`0x[0-9a-f]+`)

func normalizePtrs(s string) string {
	return ptrPat.ReplaceAllString(s, "0xPTR")
}

// FuzzRun is a differential fuzzer: arbitrary source executes on both the
// compiled engine and the tree-walking reference, which must agree on error,
// console output, return value and exact step count — failing runs
// included — and neither may panic or run away. Each input runs twice: as
// f() and as f(a, b), so values also enter through parameters, the path of
// every functional test (a method without two parameters fails the arity
// check identically on both engines).
func FuzzRun(f *testing.F) {
	seeds := []string{
		"void f() { int x = 1 / 0; }",
		"void f() { int[] a = new int[2]; a[5] = 1; }",
		"void f() { while (true) {} }",
		"void f() { String s = null; s.length(); }",
		"void f() { Scanner sc = new Scanner(System.in); sc.nextInt(); }",
		"void f() { System.out.printf(\"%d %s %q\", 1); }",
		"int f() { return f(); }",
		"void f() { double d = 0.0 / 0.0; System.out.println(d); }",
		"void f() { int x = 2147483647; x = x + x; System.out.println(x); }",
		// Switch fallthrough across a declaration: the slot stays undefined
		// and the later read must fail identically in both engines.
		"void f() { int t = 2; switch (t) { case 1: int y = 5; case 2: System.out.println(y); } }",
		"void f() { int t = 1; switch (t) { case 1: System.out.print(\"a\"); case 2: System.out.print(\"b\"); break; default: System.out.print(\"c\"); } }",
		"void f() { int t = 9; switch (t) { default: System.out.print(\"d\"); case 1: System.out.print(\"x\"); } }",
		// Shadowing and conditional declarations.
		"void f() { int x = 1; { int x = 2; System.out.println(x); } System.out.println(x); }",
		"void f() { boolean c = false; if (c) { int q = 2; } System.out.println(q); }",
		"void f() { for (int i = 0; i < 3; i++) { int s = i * 2; System.out.println(s); } }",
		// Compound assignment evaluation order and narrowing.
		"void f() { int i = 7; i += 2.5; System.out.println(i); }",
		"void f() { char c = 'a'; c += 1; System.out.println(c); }",
		"void f() { int[] a = {1, 2, 3}; a[0] += a[2]; System.out.println(a[0]); }",
		// For-each over arrays and strings, with break/continue.
		"void f() { int[] a = {5, 6, 7}; for (int v : a) { if (v == 6) continue; System.out.println(v); } }",
		"void f() { for (char ch : \"abc\".toCharArray()) { System.out.print(ch); } }",
		// Strings, printf, ternaries, casts.
		"void f() { String s = \"Hello\"; System.out.println(s.substring(1, 3).toUpperCase()); }",
		"void f() { System.out.printf(\"%5.2f|%d|%s%n\", 3.14159, 42, \"ok\"); }",
		"int f() { int n = 5; return n > 3 ? (int) 2.9 : -1; }",
		// Scanner over stdin.
		"void f() { Scanner sc = new Scanner(System.in); int a = sc.nextInt(); int b = sc.nextInt(); System.out.println(a + b); }",
		// Recursion and multiple methods.
		"int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); } int f() { return fib(8); }",
		// Class fields (globals) with initializers.
		"class A { static int total = 3; static int[] data = {1, 2}; void f() { total += data[1]; System.out.println(total); } }",
		// do-while, nested loops, stray break.
		"void f() { int i = 0; do { i++; } while (i < 4); System.out.println(i); }",
		"void f() { for (int i = 0; i < 3; i++) { for (int j = 0; j < 3; j++) { if (j > i) break; System.out.print(j); } } }",
		"void f() { System.out.print(\"x\"); break; System.out.print(\"y\"); }",
		// Array return value (pointer-rendered by Format, Snapshot-compared).
		"int[] f() { int[] a = new int[3]; for (int i = 0; i < 3; i++) a[i] = i * i; return a; }",
	}
	for _, s := range seeds {
		f.Add(s, int64(0), int64(0))
	}
	// Programs that take their values as parameters, mostly past the 0..255
	// an int64 boxes into without allocating.
	params := []struct {
		src  string
		a, b int64
	}{
		// The esc-LAB-3-P1-V1 and P3-V2 loops; f = 0 never terminates.
		{"void f(long k, long f0) { int n = 1; long f = f0; while (f * (n + 1) <= k) { n++; f *= n; } System.out.println(n); }", 5040, 0},
		{"void f(long k, long f0) { int n = 1; long f = f0; while (f * (n + 1) <= k) { n++; f *= n; } System.out.println(n); }", 5040, 1},
		{"void f(int n, int m) { int count = 0; long f = 1; long i = 1; while (f <= m) { if (f >= n) count++; i++; f = f * i; } System.out.println(count); }", 1, 720},
		{"void f(int n, int m) { int c = 0; long f = 0; long i = 1; while (f <= m) { if (f >= n && f <= m) c = c + 1; f = f * i; i = i + 1; } System.out.println(c); }", 2, 24},
		// int64 overflow.
		{"long f(long a, long b) { long x = a * b; x += 9223372036854775807L; return x + a; }", 1 << 40, 1 << 30},
		// % and / by zero.
		{"long f(long a, long b) { long q = a / (b + 1); return a % b + q; }", 700, 0},
		{"long f(long a, long b) { long s = 0; for (long i = a; i > b; i--) s += a / i; return s; }", 300, -1},
		// Shifts of 64 and more.
		{"long f(long a, long b) { return (a << b) + (a >> b) + (a >>> b); }", -5000, 64},
		{"long f(long a, long b) { long x = a; x <<= b; x >>= 70; return x ^ (a >>> (b + 1)); }", 123456789, 65},
		// A char narrows on compound assignment.
		{"void f(int a, int b) { char c = 'a'; c += 300; System.out.println(c); c += a; System.out.println((int) c); }", 1000, 0},
		// A parameter reassigned to a double.
		{"void f(int a, int b) { a = 2.5; System.out.println(a + b); a += 1; System.out.println(a); a++; System.out.println(a * b); }", 0, 700},
		// Mixed int/double comparisons.
		{"boolean f(long a, long b) { double d = b; System.out.println(a == d); System.out.println(a < d + 0.5); return a != b || a >= 0.5; }", 9007199254740993, 9007199254740993},
		// Integral == and switch are exact past 2^53.
		{"void f(long a, long b) { long x = 1; for (int i = 0; i < 53; i++) x = x * 2; long y = x + 1; System.out.println(y == x); System.out.println(y != x); System.out.println(y > x); switch (y) { case 9007199254740992L: System.out.println(a); break; default: System.out.println(b); } }", 1, 2},
		{"void f(long a, long b) { switch (a) { case 9007199254740993L: System.out.println(\"hi\"); case 300: System.out.println(b == a); break; default: System.out.println(a - b); } }", 9007199254740993, 9007199254740992},
		// Loops whose state recurs, which the compiled engine fast-forwards
		// to the step limit: the esc-LAB-3-P2-V2 and P3-V1 loops, a period
		// of two iterations, -0.0 against 0.0, a NaN accumulator, a global,
		// do and for (;;) heads, an empty print; and loops it must run in
		// full: an array store, a Scanner read, a growing global.
		{"void f(int a, int b) { int s = 0; int t = a; while (t >= 0) { int d = t % 10; s += d * d * d; t /= 10; } System.out.println(s == a); }", 153, 0},
		{"void f(int a, int b) { int s = 0; int t = a; while (t >= 0) { int d = t % 10; s += (int) Math.pow(d, 3); t /= 10; } System.out.println(s); }", 9474, 0},
		{"void f(int a, int b) { int r = 1; int t = a; while (t >= 0) { r = r * 10 + t % 10; t /= 10; } System.out.println(r - a); }", 12345, 0},
		{"void f(int a, int b) { int x = a; while (b >= 0) { if (x == a) { x = b; } else { x = a; } } }", 7, 3},
		{"void f(int a, int b) { double x = 0.0; while (a >= 0) { x = -x; if (1 / x > 0) { b++; b--; } } }", 1, 0},
		{"void f(int a, int b) { double s = 0.0 / 0.0; while (a >= 0) { s += a; a /= 10; } System.out.println(s); }", 907, 0},
		{"class A { static int g = 0; void f(int a, int b) { while (a >= 0) { g = b - g; a /= 10; } } }", 55, 1},
		{"void f(int a, int b) { do { a /= 10; System.out.print(\"\"); } while (a >= b); }", 123, 0},
		{"void f(int a, int b) { for (;;) { a = a / 10 + b; } }", 99, 0},
		{"void f(int a, int b) { int[] x = new int[2]; while (a >= 0) { x[b] = a; a /= 10; } }", 4321, 1},
		{"void f(int a, int b) { Scanner sc = new Scanner(System.in); while (a >= 0) { if (sc.hasNextInt()) { b += sc.nextInt(); } } }", 0, 0},
		{"class A { static int g = 0; void f(int a, int b) { while (a >= 0) { g++; if (g == a) { System.out.print(b); } } } }", 300, 42},
		// Loops whose state recurs but for a drifting counter: both factor
		// orders, the three zero-candidate writes, int and long counters, a
		// for counter, a decrementing counter, two counters, a long counter
		// that wraps; and loops it must run in full: the counter reaches a
		// branch, a division, an index, a print, a global or a ?: or && in
		// the factor, the zero is a double, the accumulator gets a + 1, a
		// factor local holds a double in mid-iteration.
		{"void f(int a, int b) { int n = 1; long f = b; while ((1 + n) * f <= a) { f = f * n; n = n + 1; } }", 5040, 0},
		{"void f(int a, int b) { long n = b; int f = 0; while (f * (n + 1) <= a) { n++; f = n * f; } }", 5040, 7},
		{"void f(int a, int b) { long f = b; for (int i = 1; f * i <= a; i++) { f *= i; } }", 5040, 0},
		{"void f(int a, int b) { int n = b; long f = 0; while (f * (n - 1) >= -a) { n--; f = f * n; } }", 5040, 0},
		{"void f(int a, int b) { int n = 1; long m = b; long f = 0; while (f * (n + m) <= a) { n++; m += 2; f *= n; } }", 5040, 0},
		{"void f(long a, long b) { long n = Long.MAX_VALUE - b; long f = 0; while (f * (n + 1) <= a) { n++; f *= n; } }", 5040, 1000},
		{"void f(int a, int b) { int n = 1; long f = 0; while (f * (n + 1) <= a) { n++; f *= n; if (n == b) { System.out.print(n); } } }", 5040, 900},
		{"void f(int a, int b) { int n = 1; int s = 0; long f = 0; while (f * (n + 1) <= a) { n++; f *= n; s = a / (n - b); } }", 5040, 1000},
		{"void f(int a, int b) { int[] x = new int[b]; int n = 1; int s = 0; long f = 0; while (f * (n + 1) <= a) { n++; f *= n; s = x[n]; } }", 5040, 1000},
		{"void f(int a, int b) { int n = b; long f = 0; while (f * (n + 1) <= a) { n++; f *= n; System.out.print(n); } }", 5040, 0},
		{"class A { static long g = 0; void f(int a, int b) { int n = b; long f = 0; while (f * (n + 1) <= a) { n++; f *= n; g = n; } } }", 5040, 0},
		{"void f(int a, int b) { int n = 1; long f = 0; while (f * (n > b ? n : 1) <= a) { n++; f *= n; } }", 5040, 500},
		{"void f(int a, int b) { int n = 1; long f = 0; while (f * (n > b && a > 0 ? n : 1) <= a) { n++; f *= n; } }", 5040, 500},
		{"void f(int a, int b) { int n = 1; double f = b; while (f * (n + 1) <= a) { n++; f *= n; } }", 5040, 0},
		{"void f(int a, int b) { int n = 1; long f = b; while (f * (n + 1) <= a) { n++; f = f * n + 1; f *= 0; } }", 5040, 0},
		{"void f(int a, int b) { int n = -b; int y = 1; long z = 0; double g = 0; while (a >= 0) { y = 2.5; g = z * (n + y); y = 1; n++; if (1 / g > 0) { System.out.print(n); } } }", 5040, 400},
	}
	for _, p := range params {
		f.Add(p.src, p.a, p.b)
	}
	f.Fuzz(func(t *testing.T, src string, a, b int64) {
		unit, err := parser.Parse(src)
		if err != nil {
			return
		}
		cfg := interp.Config{Stdin: "1 2 3", MaxSteps: 20_000, MaxDepth: 64}
		checkParity(t, unit, nil, cfg)
		checkParity(t, unit, []interp.Value{a, b}, cfg)
	})
}

// checkParity runs f(args...) on both engines and fails on any divergence.
// It returns the compiled engine's result.
func checkParity(t *testing.T, unit *ast.CompilationUnit, args []interp.Value, cfg interp.Config) *interp.Result {
	t.Helper()
	got, gotErr := interp.Run(unit, "f", args, cfg)
	want, wantErr := interp.RunTreeWalk(unit, "f", args, cfg)

	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("f%v: error divergence: compiled %v, tree-walk %v", args, gotErr, wantErr)
	}
	if gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("f%v: error text divergence:\ncompiled:  %v\ntree-walk: %v", args, gotErr, wantErr)
	}
	if got == nil || want == nil {
		t.Fatalf("f%v: nil result", args)
	}
	if normalizePtrs(got.Stdout) != normalizePtrs(want.Stdout) {
		t.Fatalf("f%v: stdout divergence:\ncompiled:  %q\ntree-walk: %q", args, got.Stdout, want.Stdout)
	}
	if interp.Snapshot(got.Return) != interp.Snapshot(want.Return) {
		t.Fatalf("f%v: return divergence: compiled %s, tree-walk %s",
			args, interp.Snapshot(got.Return), interp.Snapshot(want.Return))
	}
	if got.Steps != want.Steps {
		t.Fatalf("f%v: step divergence: compiled %d, tree-walk %d", args, got.Steps, want.Steps)
	}
	return got
}
