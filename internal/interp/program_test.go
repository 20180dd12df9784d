package interp_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"semfeed/internal/interp"
	"semfeed/internal/java/parser"
)

// recordingTracer captures the OnAssign event stream for trace-parity checks.
type recordingTracer struct {
	events []string
}

func (r *recordingTracer) OnAssign(method string, line int, name string, v interp.Value) {
	r.events = append(r.events, fmt.Sprintf("%s:%d %s=%s", method, line, name, interp.Snapshot(v)))
}

// parityPrograms exercise the corners where flat-slot compilation could
// drift from the tree-walker's dynamic scope maps: fallthrough past
// declarations, shadowing, conditional declarations, loop scope re-entry,
// evaluation order and the trace stream.
var parityPrograms = []struct {
	name  string
	src   string
	stdin string
}{
	{"switch-fallthrough-decl", `void f() { int t = 1; switch (t) { case 1: int y = 5; case 2: y = y + 1; System.out.println(y); } }`, ""},
	{"switch-skip-decl", `void f() { int t = 2; switch (t) { case 1: int y = 5; case 2: System.out.println(y); } }`, ""},
	{"switch-default-position", `void f() { for (int t = 0; t < 4; t++) { switch (t) { case 1: System.out.print("a"); break; default: System.out.print("d"); case 2: System.out.print("b"); break; } } }`, ""},
	{"shadowing", `void f() { int x = 1; { int x = 2; { int x = 3; System.out.println(x); } System.out.println(x); } System.out.println(x); }`, ""},
	{"conditional-decl", `void f() { boolean c = false; if (c) { int q = 2; } int q = 7; System.out.println(q); }`, ""},
	{"loop-scope-reset", `void f() { for (int i = 0; i < 3; i++) { int acc; acc = 0; acc = acc + i; System.out.println(acc); } }`, ""},
	{"use-outer-before-decl", `void f() { int x = 10; { System.out.println(x); int x = 20; System.out.println(x); } }`, ""},
	{"self-ref-init", `void f() { int x = 3; { int x = x + 1; System.out.println(x); } }`, ""},
	{"multi-declarator", `void f() { int a = 1, b = a + 1, c = a + b; System.out.println(c); }`, ""},
	{"compound-order", `int[] g() { System.out.print("g"); int[] a = {1, 2}; return a; } void f() { g()[1] += 10; }`, ""},
	{"compound-narrow", `void f() { int i = 7; i += 2.9; char c = 'a'; c += 2; System.out.println(i); System.out.println(c); }`, ""},
	{"foreach-string", `void f() { int n = 0; for (char ch : "hello".toCharArray()) { if (ch == 'l') continue; n++; } System.out.println(n); }`, ""},
	{"foreach-break", `void f() { int[] a = {1, 2, 3, 4}; int s = 0; for (int v : a) { if (v == 3) break; s += v; } System.out.println(s); }`, ""},
	{"for-update-steps", `void f() { int s = 0; for (int i = 0, j = 10; i < j; i++, j--) { s++; } System.out.println(s); }`, ""},
	{"globals", `class A { static int total = 5; static int next = total + 1; void f() { total += next; System.out.println(total); } }`, ""},
	{"global-forward-ref", `class A { static int a = b + 1; static int b = 2; void f() { System.out.println(a); } }`, ""},
	{"stray-break", `void f() { System.out.print("x"); break; System.out.print("y"); }`, ""},
	{"stray-continue", `void f() { System.out.print("x"); continue; System.out.print("y"); }`, ""},
	{"scanner", `void f() { Scanner sc = new Scanner(System.in); while (sc.hasNextInt()) { System.out.println(sc.nextInt() * 2); } }`, "3 5 8"},
	{"ternary-steps", `void f() { int x = 5; System.out.println(x > 3 ? "big" : "small"); }`, ""},
	{"field-length", `void f() { int[] a = new int[4]; System.out.println(a.length); }`, ""},
	{"static-const", `void f() { System.out.println(Integer.MAX_VALUE); System.out.println(Math.PI > 3); }`, ""},
	{"recursion", `int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); } void f() { System.out.println(fib(10)); }`, ""},
	{"do-while", `void f() { int i = 0; do { i++; } while (i < 4); System.out.println(i); }`, ""},
	{"array-lit-nested", `void f() { int[][] m = {{1, 2}, {3, 4}}; System.out.println(m[1][0] + m[0][1]); }`, ""},
	{"string-switch", `void f() { String s = "two"; switch (s) { case "one": System.out.print(1); break; case "two": System.out.print(2); break; } }`, ""},
	{"throw", `void f() { throw "boom"; }`, ""},
	{"division-by-zero", `void f() { int z = 0; System.out.println(7 / z); }`, ""},
	{"index-oob", `void f() { int[] a = new int[2]; a[5] = 1; }`, ""},
	{"null-call", `void f() { String s = null; s.length(); }`, ""},
	{"unresolved-var", `void f() { System.out.println(nosuch); }`, ""},
	{"unresolved-method", `void f() { nosuch(); }`, ""},
	{"printf", `void f() { System.out.printf("%5.2f|%03d|%s%n", 3.14159, 7, "ok"); }`, ""},
}

// TestCompiledParity runs the corpus through both engines and requires
// byte-identical output, return, error, step count and trace stream; a
// failing run must agree on the output and steps it got to as well.
func TestCompiledParity(t *testing.T) {
	for _, tc := range parityPrograms {
		t.Run(tc.name, func(t *testing.T) {
			unit, err := parser.Parse(tc.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			ct := &recordingTracer{}
			wt := &recordingTracer{}
			cfg := interp.Config{Stdin: tc.stdin, MaxSteps: 200_000}
			ccfg, wcfg := cfg, cfg
			ccfg.Tracer = ct
			wcfg.Tracer = wt
			got, gotErr := interp.Run(unit, "f", nil, ccfg)
			want, wantErr := interp.RunTreeWalk(unit, "f", nil, wcfg)

			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("error divergence: compiled %v, tree-walk %v", gotErr, wantErr)
			}
			if gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("error text divergence:\ncompiled:  %v\ntree-walk: %v", gotErr, wantErr)
			}
			if got.Stdout != want.Stdout {
				t.Errorf("stdout divergence:\ncompiled:  %q\ntree-walk: %q", got.Stdout, want.Stdout)
			}
			if interp.Snapshot(got.Return) != interp.Snapshot(want.Return) {
				t.Errorf("return divergence: %s vs %s", interp.Snapshot(got.Return), interp.Snapshot(want.Return))
			}
			if got.Steps != want.Steps {
				t.Errorf("step divergence: compiled %d, tree-walk %d", got.Steps, want.Steps)
			}
			if len(ct.events) != len(wt.events) {
				t.Fatalf("trace length divergence: compiled %d, tree-walk %d\ncompiled:  %v\ntree-walk: %v",
					len(ct.events), len(wt.events), ct.events, wt.events)
			}
			for i := range ct.events {
				if ct.events[i] != wt.events[i] {
					t.Fatalf("trace divergence at %d: compiled %q, tree-walk %q", i, ct.events[i], wt.events[i])
				}
			}
		})
	}
}

// TestProgramReuse checks that one compiled Program yields identical,
// isolated results across sequential runs (pooled frames and vms must not
// leak state — globals, output, step counters — between runs).
func TestProgramReuse(t *testing.T) {
	src := `class A { static int calls = 0; int f(int x) { calls = calls + 1; System.out.println(calls); return x * calls; } }`
	unit, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog := interp.Compile(unit)
	for i := 0; i < 5; i++ {
		res, err := prog.Run("f", []interp.Value{int64(10)}, interp.Config{})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		// calls resets to 0 per run, so every run prints "1" and returns 10.
		if res.Stdout != "1\n" || res.Return != int64(10) {
			t.Fatalf("run %d leaked state: stdout %q return %v", i, res.Stdout, res.Return)
		}
	}
}

// TestProgramConcurrent hammers one Program and one Cache from many
// goroutines, the BatchGrader worker shape; run with -race. The last two
// sources loop until the step limit, one with a state that recurs and one
// with a drifting counter, so their runs are fast-forwarded and exercise
// the loop watches of pooled frames.
func TestProgramConcurrent(t *testing.T) {
	srcs := []string{
		`int f(int x) { int s = 0; for (int i = 0; i < x; i++) { s += i; } return s; }`,
		`int f(int x) { if (x % 2 == 0) return x / 2; return 3 * x + 1; }`,
		`int f(int x) { int[] a = new int[x]; for (int i = 0; i < x; i++) a[i] = i; int s = 0; for (int v : a) s += v; return s; }`,
		`int f(int x) { int s = 0; int t = x; while (t >= 0) { int d = t % 10; s += d * d * d; t /= 10; } return s; }`,
		`int f(int x) { int n = 1; long p = 0; while (p * (n + 1) <= x) { n++; p *= n; } return n; }`,
	}
	cfg := interp.Config{MaxSteps: 5_000}
	cache := interp.NewCache(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				src := srcs[(w+i)%len(srcs)]
				unit, err := parser.Parse(src)
				if err != nil {
					t.Error(err)
					return
				}
				prog, _ := cache.CompileCached(src, unit)
				res, err := prog.Run("f", []interp.Value{int64(10)}, cfg)
				want, wantErr := interp.RunTreeWalk(unit, "f", []interp.Value{int64(10)}, cfg)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || res.Return != want.Return || res.Steps != want.Steps {
					t.Errorf("worker %d divergence: %v, %d steps, %v vs %v, %d steps, %v",
						w, res.Return, res.Steps, err, want.Return, want.Steps, wantErr)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := cache.Stats()
	if st.Misses == 0 || st.Hits == 0 {
		t.Errorf("cache not exercised: %+v", st)
	}
}

// TestCacheLRU verifies hashing, hit/miss accounting and eviction order.
func TestCacheLRU(t *testing.T) {
	cache := interp.NewCache(2)
	mk := func(n int) string { return fmt.Sprintf(`int f() { return %d; }`, n) }
	compile := func(n int) (bool, *interp.Program) {
		src := mk(n)
		unit, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		prog, hit := cache.CompileCached(src, unit)
		return hit, prog
	}
	if hit, _ := compile(1); hit {
		t.Fatal("first compile reported a hit")
	}
	if hit, _ := compile(2); hit {
		t.Fatal("second compile reported a hit")
	}
	if hit, _ := compile(1); !hit {
		t.Fatal("re-compile of cached source missed")
	}
	compile(3) // evicts 2 (least recently used)
	if prog := cache.Lookup(mk(2)); prog != nil {
		t.Fatal("evicted entry still cached")
	}
	if prog := cache.Lookup(mk(1)); prog == nil {
		t.Fatal("recently used entry was evicted")
	}
	st := cache.Stats()
	if st.Size != 2 || st.Evictions != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Hits != 2 || st.Misses != 3 {
		t.Fatalf("hit/miss accounting: %+v", st)
	}
}

// TestStepLimitLine checks that budget exhaustion reports the line of the
// last executed node on both engines, and unwraps to ErrStepLimit.
func TestStepLimitLine(t *testing.T) {
	src := "void f() {\n  int i = 0;\n  while (true) {\n    i++;\n  }\n}"
	unit, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := interp.Config{MaxSteps: 500}
	for _, engine := range []struct {
		name string
		run  func() (*interp.Result, error)
	}{
		{"compiled", func() (*interp.Result, error) { return interp.Run(unit, "f", nil, cfg) }},
		{"tree-walk", func() (*interp.Result, error) { return interp.RunTreeWalk(unit, "f", nil, cfg) }},
	} {
		_, err := engine.run()
		if !errors.Is(err, interp.ErrStepLimit) {
			t.Fatalf("%s: err = %v, want ErrStepLimit", engine.name, err)
		}
		var re *interp.RuntimeError
		if !errors.As(err, &re) {
			t.Fatalf("%s: err type %T", engine.name, err)
		}
		if re.Line < 3 || re.Line > 4 {
			t.Errorf("%s: step limit line = %d, want the loop body (3-4)", engine.name, re.Line)
		}
	}
}

// TestStepLimitRunAllocs gates the allocations of a run that spends its
// whole step budget: the esc-LAB-3-P1-V1 loop with f = 0 never ends, and
// its counter passes 255, beyond which a boxed int64 allocates. Doubling the
// budget must not add a single allocation.
func TestStepLimitRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const ceiling = 8
	src := `void f(int k) { int n = 1; long f = 0; while (f * (n + 1) <= k) { n++; f *= n; } System.out.println(n); }`
	unit, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog := interp.Compile(unit)
	args := []interp.Value{int64(5040)}
	var allocs [2]float64
	for i, budget := range []int{100_000, 200_000} {
		cfg := interp.Config{MaxSteps: budget}
		allocs[i] = testing.AllocsPerRun(10, func() {
			if _, err := prog.Run("f", args, cfg); !errors.Is(err, interp.ErrStepLimit) {
				t.Fatalf("budget %d: err = %v, want ErrStepLimit", budget, err)
			}
		})
	}
	if allocs[0] != allocs[1] || allocs[1] > ceiling {
		t.Errorf("allocations per run: %.0f at 100,000 steps, %.0f at 200,000; want equal and at most %d",
			allocs[0], allocs[1], ceiling)
	}
	t.Logf("%.0f allocations per step-limited run", allocs[0])
}

// TestDoneCancellation checks the Done channel aborts a compiled run with
// ErrCanceled.
func TestDoneCancellation(t *testing.T) {
	unit, err := parser.Parse(`void f() { while (true) {} }`)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	close(done)
	_, runErr := interp.Run(unit, "f", nil, interp.Config{Done: done})
	if !errors.Is(runErr, interp.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", runErr)
	}
}

// TestDefaultLimits pins the documented default budgets.
func TestDefaultLimits(t *testing.T) {
	if interp.DefaultMaxSteps != 2_000_000 {
		t.Errorf("DefaultMaxSteps = %d", interp.DefaultMaxSteps)
	}
	if interp.DefaultMaxDepth != 2_000 {
		t.Errorf("DefaultMaxDepth = %d", interp.DefaultMaxDepth)
	}
}
