package assignments

import (
	"semfeed/internal/functest"
	"semfeed/internal/interp"
	"semfeed/internal/synth"
)

// rit-all-g-medals (RIT CS1): count all gold medals awarded in a given year,
// reading the records file position by position (i % 5 guards).
//
// |S| = 3^7 * 2^8 = 559,872. The paper's 1,872 discrepancies are
// functionally-correct-but-semantically-odd submissions (Figure 7) that use
// the same position condition twice to advance the file cursor; the guard
// choices below generate exactly such combinations, and the per-position
// containment constraints flag them.
func init() {
	spec := &synth.Spec{
		Name: "rit-all-g-medals",
		Template: `void countGoldMedals(int year) {
  int @{iName} = 1;
  int @{mName} = @{mInit};
  int @{pName} = 0;
  int @{yName} = 0;
  Scanner @{sName} = new Scanner(new File("summer_olympics.txt"));
  while (@{sName}.hasNext()) {
    if (@{iName} % 5 == @{skipAGuard})
      @{sName}.next();
    if (@{iName} % 5 == @{skipBGuard})
      @{sName}.next();
    if (@{iName} % 5 == @{medalGuard})
      @{pName} = @{sName}.nextInt();
    if (@{iName} % 5 == @{yearGuard})
      @{yName} = @{sName}.nextInt();
    if (@{iName} % 5 == @{sepGuard}) {
      @{sName}.next();
      if (@{filter})
        @{mName}@{inc};
    }
    @{iName}++;
  }
  @{sName}.close();
  System.out.@{printCall}(@{mName});
}`,
		Choices: []synth.Choice{
			{ID: "skipAGuard", Options: []string{"1", "2", "3"}},
			{ID: "skipBGuard", Options: []string{"2", "1", "4"}},
			{ID: "medalGuard", Options: []string{"3", "4", "1"}},
			{ID: "yearGuard", Options: []string{"4", "3", "2"}},
			{ID: "sepGuard", Options: []string{"0", "4", "2"}},
			{ID: "filter", Options: []string{
				"@{yName} == year && @{pName} == @{goldVal}",
				"@{pName} == @{goldVal} && @{yName} == year",
				"@{yName} == year || @{pName} == @{goldVal}",
			}},
			{ID: "pName", Options: []string{"p", "mt", "typ"}},
			{ID: "iName", Options: []string{"i", "idx"}},
			{ID: "mName", Options: []string{"medals", "count"}},
			{ID: "yName", Options: []string{"y", "yr"}},
			{ID: "sName", Options: []string{"s", "sc"}},
			{ID: "mInit", Options: []string{"0", "1"}},
			{ID: "inc", Options: []string{"++", " += 1"}},
			{ID: "printCall", Options: []string{"println", "print"}},
			{ID: "goldVal", Options: []string{"1", "2"}},
		},
	}

	files := olympicsFiles(60)
	tests := &functest.Suite{
		Entry:    "countGoldMedals",
		MaxSteps: 500_000,
		Cases: []functest.Case{
			{Name: "y1984", Args: []interp.Value{int64(1984)}, Files: files},
			{Name: "y1992", Args: []interp.Value{int64(1992)}, Files: files},
			{Name: "y2000", Args: []interp.Value{int64(2000)}, Files: files},
			{Name: "y2012", Args: []interp.Value{int64(2012)}, Files: files},
			{Name: "unknown-year", Args: []interp.Value{int64(1900)}, Files: files},
		},
	}

	register(&Assignment{
		ID:     "rit-all-g-medals",
		Course: "RIT CS1",
		Entry:  "countGoldMedals",
		Synth:  spec,
		Tests:  tests,
		Paper:  PaperRow{S: 559872, L: 24.67, T: 0.32, P: 9, C: 7, M: 0.13, D: 1872},
	})
}
