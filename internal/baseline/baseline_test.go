package baseline

import "testing"

func TestTable1MatchesPaper(t *testing.T) {
	// Paper Table 1, row by row.
	want := map[string]Capabilities{
		"mmTag":       {Uplink: true},
		"Millimetro":  {Localization: true},
		"OmniScatter": {Uplink: true, Localization: true},
		"MilBack":     {Uplink: true, Localization: true, Downlink: true, Orientation: true},
	}
	rows := Table1()
	if len(rows) != 4 {
		t.Fatalf("Table 1 has %d rows, want 4", len(rows))
	}
	for _, s := range rows {
		w, ok := want[s.Name]
		if !ok {
			t.Errorf("unexpected system %q", s.Name)
			continue
		}
		if s.Caps != w {
			t.Errorf("%s capabilities = %+v, want %+v", s.Name, s.Caps, w)
		}
	}
	// Row order matches the paper.
	order := []string{"mmTag", "Millimetro", "OmniScatter", "MilBack"}
	for i, s := range rows {
		if s.Name != order[i] {
			t.Errorf("row %d = %s, want %s", i, s.Name, order[i])
		}
	}
}

func TestOnlyMilBackIsFullFeatured(t *testing.T) {
	full := OnlyFullFeatured(Table1())
	if len(full) != 1 || full[0].Name != "MilBack" {
		t.Fatalf("full-featured systems = %v, want only MilBack", full)
	}
	if MilBack().Score() != 4 {
		t.Error("MilBack should score 4")
	}
	if MmTag().Score() != 1 || OmniScatter().Score() != 2 {
		t.Error("baseline scores wrong")
	}
}

func TestEnergyEfficiencyRanking(t *testing.T) {
	// MilBack is the most efficient of the systems that communicate
	// (Millimetro doesn't, so it carries no energy per bit).
	for _, s := range Table1() {
		if s.EnergyPerBitJ > 0 && s.EnergyPerBitJ < MilBack().EnergyPerBitJ {
			t.Errorf("%s (%g J/bit) beats MilBack", s.Name, s.EnergyPerBitJ)
		}
	}
	// §9.6: MilBack's 0.8 nJ/bit is "much lower than ... 2.4 nJ/bit" of
	// mmTag — a 3x improvement.
	mb, mt := MilBack(), MmTag()
	if ratio := mt.EnergyPerBitJ / mb.EnergyPerBitJ; ratio < 2.9 || ratio > 3.1 {
		t.Errorf("mmTag/MilBack energy ratio = %g, want 3", ratio)
	}
}
