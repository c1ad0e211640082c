package main

import "testing"

func TestSelectDatasetsDefault(t *testing.T) {
	dss, err := selectDatasets("")
	if err != nil {
		t.Fatal(err)
	}
	if len(dss) != 8 {
		t.Fatalf("default dataset count = %d, want 8", len(dss))
	}
}

func TestSelectDatasetsFilter(t *testing.T) {
	dss, err := selectDatasets("uk-sim, dblp-sim")
	if err != nil {
		t.Fatal(err)
	}
	if len(dss) != 2 || dss[0].Name != "uk-sim" || dss[1].Name != "dblp-sim" {
		t.Fatalf("filtered = %v", dss)
	}
}

func TestSelectDatasetsUnknown(t *testing.T) {
	if _, err := selectDatasets("bogus"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestQuartiles(t *testing.T) {
	q25, q50, q75 := quartiles([]float64{4, 1, 3, 2, 5})
	if q25 != 2 || q50 != 3 || q75 != 4 {
		t.Fatalf("quartiles = %v %v %v, want 2 3 4", q25, q50, q75)
	}
	if q25, q50, q75 = quartiles([]float64{1, 2}); q25 != 1.25 || q50 != 1.5 || q75 != 1.75 {
		t.Fatalf("interpolated quartiles = %v %v %v, want 1.25 1.5 1.75", q25, q50, q75)
	}
	if q25, q50, q75 = quartiles(nil); q25 != 0 || q50 != 0 || q75 != 0 {
		t.Fatal("empty sample must give zeros")
	}
}
