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
