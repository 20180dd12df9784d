package interp_test

import (
	"strings"
	"testing"
	"testing/quick"

	"semfeed/internal/interp"
	"semfeed/internal/java/ast"
	"semfeed/internal/java/parser"
)

func out(t *testing.T, body string, args ...interp.Value) string {
	t.Helper()
	params := ""
	switch len(args) {
	case 1:
		params = "int p0"
	case 2:
		params = "int p0, int p1"
	}
	src := "void f(" + params + ") {\n" + body + "\n}"
	res := mustRun(t, src, "f", args, interp.Config{})
	return strings.TrimSuffix(res.Stdout, "\n")
}

func TestStringConcatChains(t *testing.T) {
	cases := map[string]string{
		`System.out.println("a" + 1 + 2);`:      "a12",
		`System.out.println(1 + 2 + "a");`:      "3a",
		`System.out.println("x" + 1.5);`:        "x1.5",
		`System.out.println("" + true + null);`: "truenull",
		`System.out.println("c" + 'd');`:        "cd",
		`System.out.println('c' + 1);`:          "100", // char promotes to int
	}
	for body, want := range cases {
		if got := out(t, body); got != want {
			t.Errorf("%s: got %q, want %q", body, got, want)
		}
	}
}

func TestNumericEdgeCases(t *testing.T) {
	cases := map[string]string{
		`System.out.println(5 / 2 * 2);`:      "4",
		`System.out.println(5 % -3);`:         "2",
		`System.out.println(-5 / 2);`:         "-2", // truncation toward zero
		`System.out.println(1 / 2.0);`:        "0.5",
		`System.out.println((int) -3.9);`:     "-3",
		`System.out.println(2147483647 + 1);`: "2147483648", // int64 carrier
		`System.out.println(1e3);`:            "1000.0",
		`System.out.println(10.0 / 0);`:       "Infinity",
		`System.out.println(-10.0 / 0);`:      "-Infinity",
		`System.out.println(0.0 / 0);`:        "NaN",
		`System.out.println(7 & 3);`:          "3",
		`System.out.println(1 << 5);`:         "32",
		`System.out.println(-8 >> 1);`:        "-4",
	}
	for body, want := range cases {
		if got := out(t, body); got != want {
			t.Errorf("%s: got %q, want %q", body, got, want)
		}
	}
}

// TestIntegerEqualityExact: ==, != and switch compare two integral
// operands exactly, also past 2^53 where doubles no longer tell neighbours
// apart, while a double operand still promotes the other. Both engines.
func TestIntegerEqualityExact(t *testing.T) {
	src := `void f() {
	  long a = 1;
	  for (int i = 0; i < 53; i++) { a = a * 2; }
	  long b = a + 1;
	  System.out.println(b == a);
	  System.out.println(b != a);
	  System.out.println(b == 9007199254740992.0);
	  switch (b) {
	  case 9007199254740992: System.out.println("2^53"); break;
	  case 9007199254740993: System.out.println("2^53+1"); break;
	  }
	}`
	const want = "false\ntrue\ntrue\n2^53+1\n"
	unit, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []struct {
		name string
		run  func(*ast.CompilationUnit, string, []interp.Value, interp.Config) (*interp.Result, error)
	}{{"compiled", interp.Run}, {"tree-walk", interp.RunTreeWalk}} {
		res, err := engine.run(unit, "f", nil, interp.Config{})
		if err != nil {
			t.Fatalf("%s: %v", engine.name, err)
		}
		if res.Stdout != want {
			t.Errorf("%s: got %q, want %q", engine.name, res.Stdout, want)
		}
	}
}

func TestCompoundAssignNarrowing(t *testing.T) {
	got := out(t, `int x = 7; x /= 2; System.out.println(x);`)
	if got != "3" {
		t.Errorf("x /= 2 on int: %q", got)
	}
	got = out(t, `double d = 7; d /= 2; System.out.println(d);`)
	if got != "3.5" {
		t.Errorf("d /= 2 on double: %q", got)
	}
	got = out(t, `char c = 'a'; c += 1; System.out.println(c);`)
	if got != "b" {
		t.Errorf("c += 1 on char: %q", got)
	}
}

func TestPrePostIncrement(t *testing.T) {
	got := out(t, `int i = 5; System.out.println(i++); System.out.println(i); System.out.println(++i);`)
	if got != "5\n6\n7" {
		t.Errorf("got %q", got)
	}
	got = out(t, `int[] a = {1, 2}; int i = 0; a[i++] = 9; System.out.println(a[0] + " " + i);`)
	if got != "9 1" {
		t.Errorf("array index post-increment: %q", got)
	}
}

func TestShortCircuitSideEffects(t *testing.T) {
	src := `class T {
	  static int calls = 0;
	  static boolean touch() { calls++; return true; }
	  static void f() {
	    boolean b = false && touch();
	    boolean c = true || touch();
	    System.out.println(calls);
	  }
	}`
	unit, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(unit, "f", nil, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(res.Stdout) != "0" {
		t.Errorf("short-circuit evaluated the RHS: %q", res.Stdout)
	}
}

func TestNullSemantics(t *testing.T) {
	_, err := run(t, `void f() { int[] a = null; System.out.println(a.length); }`, "f", nil, interp.Config{})
	if err == nil || !strings.Contains(err.Error(), "NullPointerException") {
		t.Errorf("err = %v", err)
	}
	got := out(t, `int[] a = null; System.out.println(a == null);`)
	if got != "true" {
		t.Errorf("null comparison: %q", got)
	}
}

func TestNegativeArraySize(t *testing.T) {
	_, err := run(t, `void f(int p0) { int[] a = new int[p0]; }`, "f", []interp.Value{int64(-1)}, interp.Config{})
	if err == nil || !strings.Contains(err.Error(), "NegativeArraySize") {
		t.Errorf("err = %v", err)
	}
}

func TestMultiDimensionalArrays(t *testing.T) {
	got := out(t, `
	  int[][] m = new int[2][3];
	  m[1][2] = 7;
	  System.out.println(m[1][2] + " " + m[0][0] + " " + m.length + " " + m[0].length);`)
	if got != "7 0 2 3" {
		t.Errorf("got %q", got)
	}
}

func TestScannerMixedReads(t *testing.T) {
	src := `void f() {
	  Scanner sc = new Scanner(System.in);
	  String w = sc.next();
	  int n = sc.nextInt();
	  double d = sc.nextDouble();
	  String rest = sc.nextLine();
	  String line = sc.nextLine();
	  System.out.println(w + "|" + n + "|" + d + "|" + rest.trim() + "|" + line);
	}`
	res := mustRun(t, src, "f", nil, interp.Config{Stdin: "hello 42 2.5 tail\nnext line"})
	want := "hello|42|2.5|tail|next line\n"
	if res.Stdout != want {
		t.Errorf("got %q, want %q", res.Stdout, want)
	}
}

func TestScannerHasNextIntLoop(t *testing.T) {
	src := `void f() {
	  Scanner sc = new Scanner(System.in);
	  int sum = 0;
	  while (sc.hasNextInt()) sum += sc.nextInt();
	  System.out.println(sum + " " + sc.next());
	}`
	res := mustRun(t, src, "f", nil, interp.Config{Stdin: "1 2 3 stop"})
	if strings.TrimSpace(res.Stdout) != "6 stop" {
		t.Errorf("got %q", res.Stdout)
	}
}

func TestNoSuchElement(t *testing.T) {
	_, err := run(t, `void f() { Scanner sc = new Scanner(System.in); sc.nextInt(); }`,
		"f", nil, interp.Config{Stdin: "notanumber"})
	if err == nil || !strings.Contains(err.Error(), "NoSuchElementException") {
		t.Errorf("err = %v", err)
	}
}

func TestClosedScanner(t *testing.T) {
	_, err := run(t, `void f() {
	  Scanner sc = new Scanner(System.in);
	  sc.close();
	  sc.next();
	}`, "f", nil, interp.Config{Stdin: "x"})
	if err == nil || !strings.Contains(err.Error(), "IllegalStateException") {
		t.Errorf("err = %v", err)
	}
}

func TestSwitchOnChar(t *testing.T) {
	src := `void f() {
	  char c = 'b';
	  switch (c) {
	  case 'a': System.out.println("A"); break;
	  case 'b': System.out.println("B"); break;
	  }
	}`
	res := mustRun(t, src, "f", nil, interp.Config{})
	if strings.TrimSpace(res.Stdout) != "B" {
		t.Errorf("got %q", res.Stdout)
	}
}

func TestUndefinedVariable(t *testing.T) {
	_, err := run(t, `void f() { x = 1; }`, "f", nil, interp.Config{})
	if err == nil || !strings.Contains(err.Error(), "cannot resolve variable") {
		t.Errorf("err = %v", err)
	}
}

func TestUnknownMethod(t *testing.T) {
	_, err := run(t, `void f() { ghost(); }`, "f", nil, interp.Config{})
	if err == nil || !strings.Contains(err.Error(), "cannot resolve method") {
		t.Errorf("err = %v", err)
	}
}

func TestWrongArity(t *testing.T) {
	_, err := run(t, `int g(int a) { return a; } void f() { g(1, 2); }`, "f", nil, interp.Config{})
	if err == nil || !strings.Contains(err.Error(), "expects 1 arguments") {
		t.Errorf("err = %v", err)
	}
}

// TestQuickGaussSum: for arbitrary n in range, the interpreted sum loop
// agrees with the closed form — the interpreter's arithmetic is sound.
func TestQuickGaussSum(t *testing.T) {
	unit, err := parser.Parse(`int sum(int n) {
	  int s = 0;
	  for (int i = 1; i <= n; i++) s += i;
	  return s;
	}`)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint16) bool {
		n := int64(raw % 300)
		res, err := interp.Run(unit, "sum", []interp.Value{n}, interp.Config{})
		if err != nil {
			return false
		}
		return res.Return == n*(n+1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickReverseInvolution: reversing a number twice restores it when
// there are no trailing zeros — interpreter-level property of the digit
// machinery the esc assignments rely on.
func TestQuickReverseInvolution(t *testing.T) {
	unit, err := parser.Parse(`int rev(int k) {
	  int r = 0;
	  int t = k;
	  while (t > 0) {
	    r = r * 10 + t % 10;
	    t /= 10;
	  }
	  return r;
	}`)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint32) bool {
		k := int64(raw%1_000_000) + 1
		if k%10 == 0 {
			return true // trailing zeros are not involutive; skip
		}
		r1, err := interp.Run(unit, "rev", []interp.Value{k}, interp.Config{})
		if err != nil {
			return false
		}
		r2, err := interp.Run(unit, "rev", []interp.Value{r1.Return}, interp.Config{})
		if err != nil {
			return false
		}
		return r2.Return == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
