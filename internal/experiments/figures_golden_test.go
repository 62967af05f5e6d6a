package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateFiguresGolden = flag.Bool("update-figures", false, "rewrite testdata/golden_figures.json with the observed figure results")

// figuresGolden is every KS4-host figure's result at seed 1, serialized
// at full float precision. The shape locks check the paper's conclusions
// within tolerances; this pins the exact numbers, so a change to how the
// figures build or run their hosts cannot move a value unseen.
type figuresGolden struct {
	Fig5                 Fig5Result     `json:"fig5"`
	Fig6                 Fig6Result     `json:"fig6"`
	Fig8                 Fig8Result     `json:"fig8"`
	Fig9                 Fig9Result     `json:"fig9"`
	Fig12                Fig12Result    `json:"fig12"`
	KS4Linux             KS4LinuxResult `json:"ks4linux"`
	AblationIndicator    [2]float64     `json:"ablation_indicator"`
	AblationPartitioning [2]float64     `json:"ablation_partitioning"`
	AblationBanking      [2]float64     `json:"ablation_banking"`
}

func TestPaperFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure runs (about 15 s)")
	}
	const seed = 1
	var got figuresGolden
	var err error
	check := func(what string) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	got.Fig5, err = Fig5(seed)
	check("Fig5")
	got.Fig6, err = Fig6(seed)
	check("Fig6")
	got.Fig8, err = Fig8(seed)
	check("Fig8")
	got.Fig9, err = Fig9(seed)
	check("Fig9")
	got.Fig12, err = Fig12(seed)
	check("Fig12")
	got.KS4Linux, err = KS4Linux(seed)
	check("KS4Linux")
	got.AblationIndicator[0], got.AblationIndicator[1], err = AblationIndicator(seed)
	check("AblationIndicator")
	got.AblationPartitioning[0], got.AblationPartitioning[1], err = AblationPartitioning(seed)
	check("AblationPartitioning")
	got.AblationBanking[0], got.AblationBanking[1], err = AblationBanking(seed)
	check("AblationBanking")

	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", "golden_figures.json")
	if *updateFiguresGolden {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file (run with -update-figures to create): %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("figure results drifted from %s:\n got %s\nwant %s", path, data, want)
	}
}
