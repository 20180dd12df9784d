package assignments

import (
	"strconv"
	"strings"
	"testing"
)

// TestOlympicsFileFormat checks the RIT records fixture the suites read
// (builtin/fixtures/summer_olympics.txt): 60 records of five
// whitespace-separated fields, matching the format the paper describes:
// first name, last name, medal type (1 gold, 2 silver, 3 bronze), year, and
// a separator token. The paper's real file is not distributable; the
// reference solutions define the expected counts.
func TestOlympicsFileFormat(t *testing.T) {
	for _, id := range []string{"rit-all-g-medals", "rit-medals-by-ath"} {
		for _, c := range Get(id).Tests.Cases {
			if len(c.Files) != 1 {
				t.Fatalf("%s/%s: files = %d, want the records file alone", id, c.Name, len(c.Files))
			}
		}
	}
	content := Get("rit-all-g-medals").Tests.Cases[0].Files["summer_olympics.txt"]
	lines := strings.Split(strings.TrimSpace(content), "\n")
	if len(lines) != 60 {
		t.Fatalf("records = %d, want 60", len(lines))
	}
	for i, line := range lines {
		fields := strings.Fields(line)
		if len(fields) != 5 {
			t.Fatalf("record %d has %d fields: %q", i, len(fields), line)
		}
		medal, err := strconv.Atoi(fields[2])
		if err != nil || medal < 1 || medal > 3 {
			t.Errorf("record %d medal = %q", i, fields[2])
		}
		year, err := strconv.Atoi(fields[3])
		if err != nil || year < 1984 || year > 2012 {
			t.Errorf("record %d year = %q", i, fields[3])
		}
		if fields[4] != ";" {
			t.Errorf("record %d separator = %q", i, fields[4])
		}
	}
}

// TestOlympicsQueriesNonTrivial: the test queries used by the RIT suites
// must have non-zero answers under the reference, or the suites could pass
// vacuously.
func TestOlympicsQueriesNonTrivial(t *testing.T) {
	for _, id := range []string{"rit-all-g-medals", "rit-medals-by-ath"} {
		a := Get(id)
		nonZero := 0
		for _, c := range a.Tests.Cases {
			if strings.TrimSpace(c.Want) != "0" {
				nonZero++
			}
		}
		if nonZero < 2 {
			t.Errorf("%s: only %d queries with non-zero expected counts", id, nonZero)
		}
	}
}
