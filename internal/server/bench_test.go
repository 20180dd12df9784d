package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"semfeed/internal/assignments"
)

// benchGrade serves one POST /v1/grade through h without a socket and fails
// the benchmark unless it is answered 200.
func benchGrade(b *testing.B, h http.Handler, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/grade", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
}

func gradeBody(b *testing.B, src string) []byte {
	body, err := json.Marshal(GradeRequest{Assignment: "assignment1", ID: "bench", Source: src})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// BenchmarkGradeHit is one store hit: the assignment1 reference resubmitted
// after a first POST graded and stored it.
func BenchmarkGradeHit(b *testing.B) {
	h := New(Config{Registry: testRegistry(b)}).Handler()
	body := gradeBody(b, assignments.Get("assignment1").Reference())
	benchGrade(b, h, body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGrade(b, h, body)
	}
}

// BenchmarkGradeMiss is one store miss: the assignment1 reference with a
// trailing comment distinct per iteration, so each POST grades and stores.
func BenchmarkGradeMiss(b *testing.B) {
	h := New(Config{Registry: testRegistry(b)}).Handler()
	ref := assignments.Get("assignment1").Reference()
	bodies := make([][]byte, b.N)
	for i := range bodies {
		bodies[i] = gradeBody(b, fmt.Sprintf("%s\n// %d\n", ref, i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGrade(b, h, bodies[i])
	}
}
