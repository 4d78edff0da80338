package campaign

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/exp"
)

func TestCacheRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := okResult("fig9")
	if err := c.StoreJSON("k1", want); err != nil {
		t.Fatal(err)
	}
	got := new(exp.Result)
	if !c.LoadJSON("k1", got, func() bool { return got.ID != "" }) {
		t.Fatal("stored entry missed")
	}
	if got.ID != want.ID || got.Title != want.Title ||
		len(got.Tables) != 1 || got.Tables[0].Rows[0][1] != "2" ||
		len(got.Plots) != 1 || len(got.Notes) != 1 {
		t.Fatalf("round-trip mangled result: %+v", got)
	}
	if st, err := c.Stat(); err != nil || st.Entries != 1 {
		t.Fatalf("Stat = %+v, %v; want 1 entry", st, err)
	}
}

func TestCacheMissAndCorruption(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var res exp.Result
	valid := func() bool { return res.ID != "" }
	if c.LoadJSON("absent", &res, valid) {
		t.Fatal("miss reported as hit")
	}
	// A truncated/corrupt entry must read as a miss and be swept away.
	if err := os.WriteFile(c.Path("bad"), []byte("{\"ID\":"), 0o644); err != nil {
		t.Fatal(err)
	}
	if c.LoadJSON("bad", &res, valid) {
		t.Fatal("corrupt entry reported as hit")
	}
	if _, err := os.Stat(c.Path("bad")); !os.IsNotExist(err) {
		t.Fatal("corrupt entry not removed")
	}
	// So must an entry that decodes but fails validation.
	if err := c.StoreJSON("invalid", &exp.Result{}); err != nil {
		t.Fatal(err)
	}
	if c.LoadJSON("invalid", &res, valid) {
		t.Fatal("invalid entry reported as hit")
	}
	if _, err := os.Stat(c.Path("invalid")); !os.IsNotExist(err) {
		t.Fatal("invalid entry not removed")
	}
	// A nil cache always misses and stores nothing.
	var none *Cache
	if none.LoadJSON("k", &res, valid) || none.StoreJSON("k", okResult("x")) != nil {
		t.Fatal("nil cache is not inert")
	}
}

func TestCacheRawRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.LoadRaw("absent"); ok {
		t.Fatal("raw miss reported as hit")
	}
	if err := c.StoreRaw("r1", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	data, ok := c.LoadRaw("r1")
	if !ok || string(data) != `{"v":1}` {
		t.Fatalf("raw round-trip: ok=%v data=%q", ok, data)
	}
}

func TestCacheStat(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("empty cache stat: %+v", st)
	}
	if err := c.StoreRaw("a", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.StoreRaw("b", make([]byte, 50)); err != nil {
		t.Fatal(err)
	}
	st, err = c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 2 || st.Bytes != 150 {
		t.Fatalf("stat after stores: %+v", st)
	}
	if st.OldestAgeMS < st.NewestAgeMS {
		t.Errorf("age range inverted: oldest %dms < newest %dms", st.OldestAgeMS, st.NewestAgeMS)
	}
}

func TestCacheGCByAge(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"old1", "old2", "new1"} {
		if err := c.StoreRaw(k, make([]byte, 10)); err != nil {
			t.Fatal(err)
		}
	}
	// Backdate two entries past the age cutoff.
	past := time.Now().Add(-2 * time.Hour)
	for _, k := range []string{"old1", "old2"} {
		if err := os.Chtimes(c.Path(k), past, past); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.GC(time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 2 || res.Kept != 1 || res.RemovedBytes != 20 {
		t.Fatalf("age gc: %+v", res)
	}
	if _, ok := c.LoadRaw("new1"); !ok {
		t.Error("age gc removed a fresh entry")
	}
}

func TestCacheGCBySize(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Four entries, oldest first by explicit mtimes so eviction order is
	// deterministic regardless of write speed.
	now := time.Now()
	for i, k := range []string{"e0", "e1", "e2", "e3"} {
		if err := c.StoreRaw(k, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		mt := now.Add(time.Duration(i-4) * time.Minute)
		if err := os.Chtimes(c.Path(k), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.GC(0, 250)
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 2 || res.Kept != 2 {
		t.Fatalf("size gc: %+v", res)
	}
	// Oldest-first: e0 and e1 go, e2 and e3 stay.
	for _, k := range []string{"e0", "e1"} {
		if _, ok := c.LoadRaw(k); ok {
			t.Errorf("size gc kept old entry %s", k)
		}
	}
	for _, k := range []string{"e2", "e3"} {
		if _, ok := c.LoadRaw(k); !ok {
			t.Errorf("size gc evicted new entry %s", k)
		}
	}
	// A second pass under the same budget is a no-op.
	res, err = c.GC(0, 250)
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 0 || res.Kept != 2 {
		t.Fatalf("idempotent gc: %+v", res)
	}
}

// TestCacheGCReapsOrphanedTemp: a writer killed between StoreRaw's write
// and rename leaves <key>.tmp-<n> behind. The age rule removes a stale one
// and keeps a fresh one (it may be a live write); neither is an entry.
func TestCacheGCReapsOrphanedTemp(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(c.Dir(), "k1.tmp-111")
	fresh := filepath.Join(c.Dir(), "k2.tmp-222")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, make([]byte, 10), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	past := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(stale, past, past); err != nil {
		t.Fatal(err)
	}
	if st, err := c.Stat(); err != nil || st.Entries != 0 {
		t.Fatalf("temp files counted as entries: %+v, %v", st, err)
	}
	res, err := c.GC(time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 1 || res.RemovedBytes != 10 || res.Kept != 0 {
		t.Fatalf("gc: %+v, want the stale temp file removed", res)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived gc")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh temp file removed: %v", err)
	}
}
