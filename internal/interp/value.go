// Package interp is an interpreter for the Java subset. It substitutes for
// the JVM in the functional-testing harness: deterministic execution of
// intro-level programs with console capture, simulated Scanner input and
// files, a step budget that surfaces infinite loops as errors, and optional
// variable tracing (used by the CLARA-style baseline).
//
// Programs run on a compiled engine (Compile, Program.Run, Run): the AST is
// lowered once to closures over slot frames that carry ints unboxed. The
// original tree-walking evaluator (RunTreeWalk) stays as its test oracle:
// both engines must agree on output, return value, error text and step
// count.
package interp

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Value is a runtime value. The dynamic types used are:
//
//	int64     int, long, byte, short
//	Char      char
//	float64   float, double
//	bool      boolean
//	string    String
//	*Array    arrays of any element type
//	*Scanner  java.util.Scanner
//	*FileRef  java.io.File
//	nil       null
type Value any

// Char is a Java char value; it participates in arithmetic as an integer but
// prints as a character.
type Char rune

// Array is a Java array.
type Array struct {
	Elems []Value
	Elem  string // element type name, e.g. "int"
}

// FileRef is a java.io.File value pointing into the virtual file system.
type FileRef struct {
	Name string
}

// zeroValue returns the default value of a declared type.
func zeroValue(typeName string, dims int) Value {
	if dims > 0 {
		return nil // array references default to null
	}
	switch typeName {
	case "int", "long", "byte", "short":
		return int64(0)
	case "char":
		return Char(0)
	case "double", "float":
		return float64(0)
	case "boolean":
		return false
	default:
		return nil
	}
}

// IsNumeric reports whether v participates in arithmetic.
func IsNumeric(v Value) bool {
	switch v.(type) {
	case int64, Char, float64:
		return true
	}
	return false
}

// AsFloat converts a numeric value to float64.
func AsFloat(v Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case Char:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

// AsInt converts an integral value to int64.
func AsInt(v Value) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case Char:
		return int64(x), true
	}
	return 0, false
}

// Format renders a value the way Java's println would.
func Format(v Value) string {
	switch x := v.(type) {
	case nil:
		return "null"
	case int64:
		return strconv.FormatInt(x, 10)
	case Char:
		return string(rune(x))
	case float64:
		return formatDouble(x)
	case bool:
		return strconv.FormatBool(x)
	case string:
		return x
	case *Array:
		if x == nil {
			return "null"
		}
		return fmt.Sprintf("[%s@%p", x.Elem, x) // Java prints an opaque ref
	case *Scanner:
		return "java.util.Scanner"
	case *FileRef:
		return x.Name
	}
	return fmt.Sprintf("%v", v)
}

// formatDouble mimics Java's Double.toString closely enough for grading:
// integral doubles print with a trailing .0, others in shortest-round-trip
// form.
func formatDouble(f float64) string {
	if math.IsInf(f, 1) {
		return "Infinity"
	}
	if math.IsInf(f, -1) {
		return "-Infinity"
	}
	if math.IsNaN(f) {
		return "NaN"
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e7 {
		return strconv.FormatFloat(f, 'f', 1, 64)
	}
	s := strconv.FormatFloat(f, 'g', -1, 64)
	// Java uses E notation with a mantissa like 1.0E7; keep Go's form, the
	// functional-test comparator treats numeric tokens numerically.
	return s
}

// valueType names the dynamic type for diagnostics.
func valueType(v Value) string {
	switch v.(type) {
	case nil:
		return "null"
	case int64:
		return "int"
	case Char:
		return "char"
	case float64:
		return "double"
	case bool:
		return "boolean"
	case string:
		return "String"
	case *Array:
		return "array"
	case *Scanner:
		return "Scanner"
	case *FileRef:
		return "File"
	}
	return fmt.Sprintf("%T", v)
}

// DeepEqual compares two values structurally (arrays by element).
func DeepEqual(a, b Value) bool {
	switch x := a.(type) {
	case *Array:
		y, ok := b.(*Array)
		if !ok || x == nil || y == nil {
			return x == nil && b == nil
		}
		if len(x.Elems) != len(y.Elems) {
			return false
		}
		for i := range x.Elems {
			if !DeepEqual(x.Elems[i], y.Elems[i]) {
				return false
			}
		}
		return true
	default:
		return a == b
	}
}

// Snapshot renders a value compactly for variable traces.
func Snapshot(v Value) string {
	switch x := v.(type) {
	case *Array:
		if x == nil {
			return "null"
		}
		parts := make([]string, len(x.Elems))
		for i, e := range x.Elems {
			parts[i] = Snapshot(e)
		}
		return "[" + strings.Join(parts, ",") + "]"
	case string:
		return strconv.Quote(x)
	default:
		return Format(v)
	}
}
