package campaign

import (
	"testing"

	"repro/internal/exp"
)

// TestAllCampaignCoversRegistry pins the contract that made the registry
// worth extracting: the "all" campaign and exp.Registry() name the exact
// same experiment-id set, so neither CLI can silently drift from the
// documented experiment list.
func TestAllCampaignCoversRegistry(t *testing.T) {
	jobs, err := JobsFor("all", 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, s := range exp.Registry() {
		if s.ID == "" || s.Run == nil {
			t.Fatalf("registry spec %+v incomplete", s)
		}
		if want[s.ID] {
			t.Fatalf("duplicate registry id %q", s.ID)
		}
		want[s.ID] = true
	}
	got := map[string]bool{}
	for _, j := range jobs {
		if got[j.ID] {
			t.Fatalf("duplicate campaign job %q", j.ID)
		}
		got[j.ID] = true
	}
	for id := range want {
		if !got[id] {
			t.Errorf("registry experiment %q missing from the all campaign", id)
		}
	}
	for id := range got {
		if !want[id] {
			t.Errorf("campaign job %q not in the registry", id)
		}
	}
}

func TestJobsForSelectors(t *testing.T) {
	tables, err := JobsFor("table", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("kind selector: got %d tables, want 3", len(tables))
	}
	list, err := JobsFor("fig2a,table1,fig2a", 1, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("id list with duplicate: got %d jobs, want 2", len(list))
	}
	if list[0].ID != "fig2a" || list[0].effN != 25 {
		t.Fatalf("override not applied: %+v", list[0])
	}
	if _, err := JobsFor("nope", 1, 0); err == nil {
		t.Fatal("unknown selector accepted")
	}
}

// TestRegistryDefaultsResolve executes the cheapest registered experiment
// end-to-end through a campaign to pin the Job→Spec plumbing.
func TestRegistryDefaultsResolve(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	jobs, err := JobsFor("fig7", 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := Run(Options{Jobs: jobs, Cache: cache})
	if s.Executed != 1 || s.Failed != 0 {
		t.Fatalf("summary %+v", s)
	}
	var res exp.Result
	if ok := cache.LoadJSON(jobs[0].Key(), &res, func() bool { return res.ID != "" }); !ok || res.ID != "fig7" {
		t.Fatalf("fig7 result not cached: %v %v", res, ok)
	}
}
