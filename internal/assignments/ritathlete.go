package assignments

import (
	"semfeed/internal/functest"
	"semfeed/internal/interp"
	"semfeed/internal/synth"
)

// rit-medals-by-ath (RIT CS1): count all medals awarded to a given athlete
// in the Summer Olympics records file.
//
// |S| = 3^6 * 2^10 = 746,496. Discrepancies mirror rit-all-g-medals
// (duplicate position conditions), plus the == string comparison, which is
// functionally correct under the interpreter's value semantics but flagged
// by the .equals pattern.
func init() {
	spec := &synth.Spec{
		Name: "rit-medals-by-ath",
		Template: `void countMedalsByAthlete(String first, String last) {
  int @{iName} = 1;
  int @{mName} = @{mInit};
  String @{fVar} = "";
  String @{lVar} = "";
  Scanner @{sName} = new Scanner(new File("summer_olympics.txt"));
  while (@{sName}.hasNext()) {
    if (@{iName} % 5 == @{fGuard})
      @{fVar} = @{sName}.next();
    if (@{iName} % 5 == @{lGuard})
      @{lVar} = @{sName}.next();
    if (@{iName} % 5 == @{mGuard})
      @{mSkip}
    if (@{iName} % 5 == @{yGuard})
      @{ySkip}
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
			{ID: "fGuard", Options: []string{"1", "2", "3"}},
			{ID: "lGuard", Options: []string{"2", "1", "4"}},
			{ID: "mGuard", Options: []string{"3", "4", "1"}},
			{ID: "yGuard", Options: []string{"4", "3", "2"}},
			{ID: "sepGuard", Options: []string{"0", "4", "2"}},
			{ID: "filter", Options: []string{
				"@{fVar}.equals(first) && @{lVar}.equals(last)",
				"@{lVar}.equals(last) && @{fVar}.equals(first)",
				"@{fVar} == first && @{lVar} == last",
			}},
			{ID: "iName", Options: []string{"i", "idx"}},
			{ID: "mName", Options: []string{"medals", "count"}},
			{ID: "fVar", Options: []string{"f", "fn"}},
			{ID: "lVar", Options: []string{"l", "ln"}},
			{ID: "sName", Options: []string{"s", "sc"}},
			{ID: "mInit", Options: []string{"0", "1"}},
			{ID: "inc", Options: []string{"++", " += 1"}},
			{ID: "printCall", Options: []string{"println", "print"}},
			{ID: "mSkip", Options: []string{"@{sName}.nextInt();", "@{sName}.next();"}},
			{ID: "ySkip", Options: []string{"@{sName}.nextInt();", "@{sName}.next();"}},
		},
	}

	files := olympicsFiles(60)
	tests := &functest.Suite{
		Entry:    "countMedalsByAthlete",
		MaxSteps: 500_000,
		Cases: []functest.Case{
			// Multi-medal athletes in the generated records, so wrong counts
			// cannot pass by accident.
			{Name: "farid-khan", Args: []interp.Value{"Farid", "Khan"}, Files: files},
			{Name: "boris-moss", Args: []interp.Value{"Boris", "Moss"}, Files: files},
			{Name: "dana-lewis", Args: []interp.Value{"Dana", "Lewis"}, Files: files},
			{Name: "unknown", Args: []interp.Value{"Zoe", "Nobody"}, Files: files},
			{Name: "half-match", Args: []interp.Value{"Farid", "Moss"}, Files: files},
		},
	}

	register(&Assignment{
		ID:     "rit-medals-by-ath",
		Course: "RIT CS1",
		Entry:  "countMedalsByAthlete",
		Synth:  spec,
		Tests:  tests,
		Paper:  PaperRow{S: 746496, L: 33.5, T: 0.35, P: 9, C: 7, M: 0.25, D: 744},
	})
}
