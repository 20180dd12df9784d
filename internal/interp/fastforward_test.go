package interp_test

import (
	"errors"
	"testing"

	"semfeed/internal/interp"
	"semfeed/internal/java/parser"
)

// fastForwardCases are loops the compiled engine fast-forwards to the step
// limit (skip) and loops it must run in full. Each body spans several lines,
// so a fast-forward by a wrong period would fail at another line than the
// full run for some of the budgets swept.
var fastForwardCases = []struct {
	name   string
	src    string
	args   []interp.Value
	stdin  string
	budget int // first budget of the sweep; 0: 6,000
	skip   bool
}{
	{name: "period-2", skip: true, src: `void f() {
  int x = 0;
  while (true) {
    if (x == 0) {
      x = 1;
    } else {
      x = 0;
    }
  }
}`},
	// A period of ten iterations is found once the window doubles to 16.
	{name: "period-10", skip: true, src: `void f() {
  int x = 0;
  while (x >= 0) {
    x = (x + 1) % 10;
    if (x == 3) {
      x = x + 0;
    }
  }
}`},
	// Compared with ==, -0.0 equals 0.0 and the loop would look like it has
	// a period of one iteration; the branch taken alternates.
	{name: "negative-zero", skip: true, src: `void f() {
  double x = 0.0;
  int n = 0;
  while (n >= 0) {
    x = -x;
    if (1 / x > 0) {
      n = 0;
    }
  }
}`},
	// Compared with ==, NaN never equals itself.
	{name: "nan-accumulator", skip: true, args: []interp.Value{int64(4096)}, src: `void f(int k) {
  double s = 0.0 / 0.0;
  int t = k;
  while (t >= 0) {
    s += t % 10;
    t /= 10;
  }
}`},
	{name: "empty-print", skip: true, args: []interp.Value{int64(77)}, src: `void f(int k) {
  System.out.print("start");
  int t = k;
  while (t >= 0) {
    System.out.print("");
    t /= 10;
  }
}`},
	{name: "global-period-2", skip: true, src: `class A {
  static int g = 0;
  void f() {
    int t = 0;
    while (t >= 0) {
      g = 1 - g;
    }
  }
}`},
	{name: "do-while", skip: true, args: []interp.Value{int64(9999)}, src: `void f(int k) {
  do {
    k /= 10;
  } while (k >= 0);
}`},
	{name: "for-no-condition", skip: true, src: `void f() {
  for (int i = 1; ; i = i * 2) {
    i = 0;
  }
}`},
	{name: "outer-loop-recurs", skip: true, src: `void f() {
  int s = 0;
  while (s >= 0) {
    for (int j = 0; j < 3; j++) {
      s = j;
    }
  }
}`},
	{name: "callee-loop-recurs", skip: true, src: `void g(int t) {
  while (t >= 0) {
    t /= 10;
  }
}
void f() {
  int n = 5;
  while (true) {
    g(n);
    n++;
  }
}`},
	// Without the globals in the compared state, the loop would match at
	// once and skip the print.
	{name: "global-grows", src: `class A {
  static int g = 0;
  void f() {
    while (true) {
      g++;
      if (g == 300) {
        System.out.print("seen");
      }
    }
  }
}`},
	// g's loop starts from the same frame in every activation; a snapshot
	// kept across activations would match and skip the print.
	{name: "callee-loop-per-activation", src: `void g() {
  int i = 0;
  while (i < 3) {
    i++;
  }
}
void f() {
  int n = 0;
  while (true) {
    g();
    n++;
    if (n == 100) {
      System.out.print("seen");
    }
  }
}`},
	// Loops whose state recurs but for a counter that drifts by a fixed
	// delta per iteration and feeds only itself and products with a zero:
	// both factor orders, the three zero-candidate writes, int and long
	// counters, a for counter, a decrementing counter, two counters, a
	// counter nothing reads, and a long counter that wraps past
	// Long.MAX_VALUE inside the skipped span (the first loop arms the watch,
	// so the second is skipped from its third iteration).
	{name: "drift-factor-left", skip: true, args: []interp.Value{int64(5040)}, src: `void f(int k) {
  int n = 1;
  long f = 0;
  while (f * (n + 1) <= k) {
    n++;
    f *= n;
  }
}`},
	{name: "drift-factor-right", skip: true, args: []interp.Value{int64(5040)}, src: `void f(int k) {
  long n = 1;
  int f = 0;
  while ((1 + n) * f <= k) {
    f = f * n;
    n = n + 1;
  }
}`},
	{name: "drift-zero-times-counter", skip: true, args: []interp.Value{int64(1), int64(720)}, src: `void f(int n, int m) {
  int count = 0;
  long f = 0;
  long i = 1;
  while (f <= m) {
    if (f >= n)
      count++;
    i++;
    f = i * f;
  }
}`},
	{name: "drift-for-counter", skip: true, args: []interp.Value{int64(5040)}, src: `void f(int k) {
  long f = 0;
  for (int i = 1; f * i <= k; i++) {
    f *= i;
  }
}`},
	{name: "drift-decrementing", skip: true, args: []interp.Value{int64(5040)}, src: `void f(int k) {
  int n = 0;
  long f = 0;
  while (f * (n - 1) >= -k) {
    n--;
    f = f * n;
  }
}`},
	{name: "drift-two-counters", skip: true, args: []interp.Value{int64(5040)}, src: `void f(int k) {
  int n = 1;
  long m = 0;
  long f = 0;
  while (f * (n + m) <= k) {
    n++;
    m += 2;
    f *= n;
  }
}`},
	{name: "drift-unread-counter", skip: true, src: `void f() {
  int n = 0;
  while (true) {
    n -= 3;
  }
}`},
	{name: "drift-long-wraps", skip: true, args: []interp.Value{int64(5040)}, src: `void f(int k) {
  int w = 0;
  while (w < 320) {
    w++;
  }
  long n = Long.MAX_VALUE - 3;
  long f = 0;
  while (f * (n + 1) <= k) {
    n++;
    f *= n;
  }
}`},
	// Drifting counters that reach something other than themselves and a
	// zeroed product: a branch, a division, an index, a print, a global, a
	// ?: or && inside the factor; a zero that is a double; an accumulator
	// that gets a + 1, so it is no zero-candidate though it is 0 at every
	// head; and a factor local that holds a double in mid-iteration, where
	// 0 * (n + 2.5) is -0.0 until n reaches -2 and 1 / g flips its sign.
	{name: "drift-reaches-if", args: []interp.Value{int64(5040)}, src: `void f(int k) {
  int n = 1;
  long f = 0;
  while (f * (n + 1) <= k) {
    n++;
    f *= n;
    if (n == 200) {
      System.out.print("seen");
    }
  }
}`},
	{name: "drift-reaches-division", args: []interp.Value{int64(5040)}, src: `void f(int k) {
  int n = 1;
  int s = 0;
  long f = 0;
  while (f * (n + 1) <= k) {
    n++;
    f *= n;
    s = k / n;
  }
}`},
	{name: "drift-reaches-index", args: []interp.Value{int64(5040)}, src: `void f(int k) {
  int[] a = new int[1000];
  int n = 1;
  int s = 0;
  long f = 0;
  while (f * (n + 1) <= k) {
    n++;
    f *= n;
    s = a[n];
  }
}`},
	{name: "drift-reaches-print", args: []interp.Value{int64(5040)}, src: `void f(int k) {
  int n = 1;
  long f = 0;
  while (f * (n + 1) <= k) {
    n++;
    f *= n;
    System.out.print(n);
  }
}`},
	{name: "drift-reaches-global", args: []interp.Value{int64(5040)}, src: `class A {
  static long g = 0;
  void f(int k) {
    int n = 1;
    long f = 0;
    while (f * (n + 1) <= k) {
      n++;
      f *= n;
      g = n;
    }
  }
}`},
	{name: "drift-ternary-factor", args: []interp.Value{int64(5040)}, src: `void f(int k) {
  int n = 1;
  long f = 0;
  while (f * (n > 5 ? n : 1) <= k) {
    n++;
    f *= n;
  }
}`},
	{name: "drift-and-factor", args: []interp.Value{int64(5040)}, src: `void f(int k) {
  int n = 1;
  long f = 0;
  while (f * (n > 5 && k > 0 ? n : 1) <= k) {
    n++;
    f *= n;
  }
}`},
	{name: "drift-double-zero", args: []interp.Value{int64(5040)}, src: `void f(int k) {
  int n = 1;
  double f = 0;
  while (f * (n + 1) <= k) {
    n++;
    f *= n;
  }
}`},
	{name: "drift-plus-one", args: []interp.Value{int64(5040)}, src: `void f(int k) {
  int n = 1;
  long f = 0;
  while (f * (n + 1) <= k) {
    n++;
    f = f * n + 1;
    f *= 0;
  }
}`},
	{name: "drift-factor-local-turns-double", args: []interp.Value{int64(5040)}, src: `void f(int k) {
  int n = -150;
  int y = 1;
  long z = 0;
  double g = 0;
  while (k >= 0) {
    y = 2.5;
    g = z * (n + y);
    y = 1;
    n++;
    if (1 / g > 0) {
      System.out.print("x");
    }
  }
}`},
	{name: "below-arming", budget: 1000, args: []interp.Value{int64(5)}, src: `void f(int k) {
  while (k >= 0) {
    k /= 10;
  }
}`},
	{name: "print", args: []interp.Value{int64(5)}, src: `void f(int k) {
  while (k >= 0) {
    System.out.print(k);
    k /= 10;
  }
}`},
	{name: "array-store", args: []interp.Value{int64(321)}, src: `void f(int k) {
  int[] a = new int[1];
  while (k >= 0) {
    a[0] = k;
    k /= 10;
  }
}`},
	{name: "scanner-read", stdin: "1 2 3", src: `void f() {
  Scanner sc = new Scanner(System.in);
  int s = 0;
  while (s >= 0) {
    if (sc.hasNextInt()) {
      s += sc.nextInt();
    }
  }
}`},
	{name: "arrays-sort", src: `void f() {
  int[] a = {2, 1};
  while (true) {
    Arrays.sort(a);
  }
}`},
}

// TestFastForward sweeps forty consecutive budgets per case and requires
// the compiled result to equal the tree-walker's (output, return, Steps,
// error text and line) at each, with steps skipped exactly in the cases
// that recur, whole or but for drifting counters.
func TestFastForward(t *testing.T) {
	for _, tc := range fastForwardCases {
		t.Run(tc.name, func(t *testing.T) {
			unit, err := parser.Parse(tc.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			budget := tc.budget
			if budget == 0 {
				budget = 6_000
			}
			for b := budget; b < budget+40; b++ {
				cfg := interp.Config{Stdin: tc.stdin, MaxSteps: b}
				got := checkParity(t, unit, tc.args, cfg)
				if got.Steps != b+1 {
					t.Fatalf("budget %d: Steps = %d, want the step limit", b, got.Steps)
				}
				if tc.skip != (got.Skipped > 0) {
					t.Fatalf("budget %d: Skipped = %d, want skipped steps: %t", b, got.Skipped, tc.skip)
				}
			}
		})
	}
}

// TestFastForwardTraced runs a recurring loop with a Tracer: it must see
// every assignment of the full run, so nothing is skipped.
func TestFastForwardTraced(t *testing.T) {
	unit, err := parser.Parse(`void f(int k) { int t = k; while (t >= 0) { int d = t % 10; t /= 10; } }`)
	if err != nil {
		t.Fatal(err)
	}
	ct, wt := &recordingTracer{}, &recordingTracer{}
	args := []interp.Value{int64(153)}
	got, gotErr := interp.Run(unit, "f", args, interp.Config{MaxSteps: 6_000, Tracer: ct})
	_, wantErr := interp.RunTreeWalk(unit, "f", args, interp.Config{MaxSteps: 6_000, Tracer: wt})
	if !errors.Is(gotErr, interp.ErrStepLimit) || gotErr.Error() != wantErr.Error() {
		t.Fatalf("errors: compiled %v, tree-walk %v", gotErr, wantErr)
	}
	if got.Skipped != 0 {
		t.Errorf("traced run skipped %d steps", got.Skipped)
	}
	if len(ct.events) != len(wt.events) {
		t.Fatalf("trace length: compiled %d, tree-walk %d", len(ct.events), len(wt.events))
	}
	for i := range ct.events {
		if ct.events[i] != wt.events[i] {
			t.Fatalf("trace divergence at %d: compiled %q, tree-walk %q", i, ct.events[i], wt.events[i])
		}
	}
}

// TestCastAllocs gates the integral casts of the compiled engine: (int) of
// a double past 255 allocated a boxed int64 per evaluation, so the loop's
// allocations grew with its iterations.
func TestCastAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	unit, err := parser.Parse(`int f(int n) { double x = 1000.5; int s = 0; for (int i = 0; i < n; i++) { s += (int) x; } return s; }`)
	if err != nil {
		t.Fatal(err)
	}
	prog := interp.Compile(unit)
	var allocs [2]float64
	for i, n := range []int64{1_000, 2_000} {
		args := []interp.Value{n}
		allocs[i] = testing.AllocsPerRun(10, func() {
			res, err := prog.Run("f", args, interp.Config{})
			if err != nil || res.Return != 1000*n {
				t.Fatalf("f(%d) = %v, %v", n, res, err)
			}
		})
	}
	if allocs[0] != allocs[1] {
		t.Errorf("allocations per run: %.0f at 1,000 iterations, %.0f at 2,000; want equal", allocs[0], allocs[1])
	}
}
