package functest_test

import (
	"testing"

	"semfeed/internal/functest"
	"semfeed/internal/interp"
	"semfeed/internal/java/parser"
)

func TestOutputEqual(t *testing.T) {
	cases := []struct {
		got, want string
		eq        bool
	}{
		{"10 15", "10\n15\n", true}, // whitespace-insensitive
		{"10 15", "15 10", false},   // order-sensitive
		{"3", "3.0", true},          // numeric tokens compare numerically
		{"3.5", "3.50", true},
		{"3,", "3.0,", true}, // trailing commas preserved
		{"3,", "3", false},
		{"abc", "abc", true},
		{"abc", "abd", false},
		{"1 2 3", "1 2", false}, // token count
		{"", "", true},
		{"0.1", "0.10000000001", false},
	}
	for _, c := range cases {
		if got := functest.OutputEqual(c.got, c.want); got != c.eq {
			t.Errorf("OutputEqual(%q, %q) = %v, want %v", c.got, c.want, got, c.eq)
		}
	}
}

func TestSuiteRunAndFailures(t *testing.T) {
	suite := &functest.Suite{
		Entry: "doubleIt",
		Cases: []functest.Case{
			{Name: "two", Args: []interp.Value{int64(2)}, Want: "4"},
			{Name: "five", Args: []interp.Value{int64(5)}, Want: "10"},
		},
	}
	good := `void doubleIt(int x) { System.out.println(2 * x); }`
	bad := `void doubleIt(int x) { System.out.println(x + 2); }`

	v, err := suite.RunSource(good)
	if err != nil || !v.Pass {
		t.Fatalf("good: %v %v", err, v.Failures)
	}
	v, err = suite.RunSource(bad)
	if err != nil || v.Pass {
		t.Fatalf("bad should fail")
	}
	// x + 2 is right for x = 2 but wrong for x = 5.
	if len(v.Failures) != 1 || v.Failures[0].Case != "five" {
		t.Errorf("failures = %v", v.Failures)
	}
}

// TestSuiteInfiniteLoopFlag also checks that a case that exhausts its
// budget counts every step it took, on both engines.
func TestSuiteInfiniteLoopFlag(t *testing.T) {
	suite := &functest.Suite{
		Entry:    "spin",
		MaxSteps: 5_000,
		Cases:    []functest.Case{{Name: "x", Want: ""}},
	}
	src := `void spin() { while (true) { int x = 0; } }`
	v, err := suite.RunSource(src)
	if err != nil {
		t.Fatal(err)
	}
	unit, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	for engine, v := range map[string]functest.Verdict{"compiled": v, "tree-walk": suite.RunTreeWalk(unit)} {
		if v.Pass || !v.InfiniteLoop {
			t.Errorf("%s: verdict = %+v, want infinite-loop failure", engine, v)
		}
		if v.Steps != 5_001 {
			t.Errorf("%s: Steps = %d, want 5001 (the budget plus the step that exceeded it)", engine, v.Steps)
		}
	}
}

func TestArgumentsAreCloned(t *testing.T) {
	arr := &interp.Array{Elem: "int", Elems: []interp.Value{int64(1), int64(2)}}
	suite := &functest.Suite{
		Entry: "zero",
		Cases: []functest.Case{
			{Name: "first", Args: []interp.Value{arr}, Want: ""},
			{Name: "second", Args: []interp.Value{arr}, Want: ""},
		},
	}
	// The submission mutates its input; the second case must still see 1, 2.
	src := `void zero(int[] a) { if (a[0] != 1) { System.out.println("dirty"); } a[0] = 99; }`
	v, err := suite.RunSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Pass {
		t.Errorf("input arrays leaked between cases: %v", v.Failures)
	}
	if arr.Elems[0] != int64(1) {
		t.Error("the caller's array must not be mutated")
	}
}

func TestFillExpected(t *testing.T) {
	suite := &functest.Suite{
		Entry: "square",
		Cases: []functest.Case{
			{Name: "three", Args: []interp.Value{int64(3)}},
			{Name: "neg", Args: []interp.Value{int64(-4)}},
		},
	}
	if err := suite.FillExpected(`void square(int x) { System.out.println(x * x); }`); err != nil {
		t.Fatal(err)
	}
	if suite.Cases[0].Want != "9\n" || suite.Cases[1].Want != "16\n" {
		t.Errorf("wants = %q, %q", suite.Cases[0].Want, suite.Cases[1].Want)
	}
}

func TestFillExpectedRejectsBrokenReference(t *testing.T) {
	suite := &functest.Suite{
		Entry: "f",
		Cases: []functest.Case{{Name: "x", Args: []interp.Value{int64(0)}}},
	}
	if err := suite.FillExpected(`void f(int x) { System.out.println(1 / x); }`); err == nil {
		t.Error("a reference that crashes must be rejected")
	}
}

func TestRunSourceSyntaxError(t *testing.T) {
	suite := &functest.Suite{Entry: "f"}
	if _, err := suite.RunSource("not java at all {"); err == nil {
		t.Error("expected a parse error")
	}
}

func TestVirtualFiles(t *testing.T) {
	suite := &functest.Suite{
		Entry: "countLines",
		Cases: []functest.Case{{
			Name:  "f",
			Files: map[string]string{"data.txt": "a\nb\nc"},
			Want:  "3",
		}},
	}
	src := `void countLines() {
	  Scanner s = new Scanner(new File("data.txt"));
	  int n = 0;
	  while (s.hasNextLine()) { s.nextLine(); n++; }
	  System.out.println(n);
	}`
	v, err := suite.RunSource(src)
	if err != nil || !v.Pass {
		t.Errorf("verdict %v, err %v", v.Failures, err)
	}
}
