package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// DefaultCacheDir is where cmd/campaign persists results unless told
// otherwise.
const DefaultCacheDir = ".campaign-cache"

// Cache is a disk-backed result store keyed by job key. One JSON file per
// job; writes go through a temp file + rename so a campaign killed
// mid-write never leaves a truncated entry, which is what makes an
// interrupted campaign resumable. Campaign results and sweep metric
// records share the directory and key space; each caller owns its record
// type and passes it through LoadJSON/StoreJSON.
type Cache struct {
	dir string
}

// OpenCache creates (if needed) and opens a cache directory.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		dir = DefaultCacheDir
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// Path returns the file a key is stored at.
func (c *Cache) Path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// LoadJSON decodes the entry under key into v and reports whether it was a
// usable hit: the entry exists, decodes, and valid (called after the
// decode) accepts it. An entry that fails to decode or validate is
// removed, so a corrupted or stale-schema file costs one re-execution
// rather than a wedged fleet. A nil cache always misses.
func (c *Cache) LoadJSON(key string, v any, valid func() bool) bool {
	if c == nil {
		return false
	}
	data, ok := c.LoadRaw(key)
	if !ok {
		return false
	}
	if err := json.Unmarshal(data, v); err != nil || !valid() {
		os.Remove(c.Path(key))
		return false
	}
	return true
}

// StoreJSON persists v's JSON encoding under key atomically. A nil cache
// stores nothing.
func (c *Cache) StoreJSON(key string, v any) error {
	if c == nil {
		return nil
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return c.StoreRaw(key, data)
}

// LoadRaw returns the raw bytes cached under key, or ok=false on a miss.
func (c *Cache) LoadRaw(key string) ([]byte, bool) {
	data, err := os.ReadFile(c.Path(key))
	if err != nil || len(data) == 0 {
		return nil, false
	}
	return data, true
}

// StoreRaw persists raw bytes under key atomically: they are written to
// <key>.tmp-<n> and renamed into place.
func (c *Cache) StoreRaw(key string, data []byte) error {
	tmp, err := os.CreateTemp(c.dir, key+tempInfix+"*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), c.Path(key))
}

// tempInfix marks StoreRaw's temp files. One left behind belongs to a
// process killed between write and rename; GC's age rule reaps it.
const tempInfix = ".tmp-"

// cacheFile is one file of a cache directory scan.
type cacheFile struct {
	name string
	size int64
	mod  time.Time
	temp bool // an orphaned or in-flight StoreRaw temp file, not an entry
}

// scan lists the cache's entries and temp files, oldest first.
func (c *Cache) scan() ([]cacheFile, error) {
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, err
	}
	var files []cacheFile
	for _, e := range ents {
		temp := strings.Contains(e.Name(), tempInfix)
		if !temp && filepath.Ext(e.Name()) != ".json" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, cacheFile{e.Name(), info.Size(), info.ModTime(), temp})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })
	return files, nil
}

// CacheStat summarizes a cache directory for `campaign cache stat`.
type CacheStat struct {
	Dir     string `json:"dir"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
	// OldestAgeMS / NewestAgeMS are entry ages relative to now (0 when
	// the cache is empty).
	OldestAgeMS int64 `json:"oldest_age_ms"`
	NewestAgeMS int64 `json:"newest_age_ms"`
}

// Stat scans the cache and reports entry count, total bytes, and age
// range. Temp files are not entries and are not counted.
func (c *Cache) Stat() (CacheStat, error) {
	st := CacheStat{Dir: c.dir}
	files, err := c.scan()
	if err != nil {
		return st, err
	}
	now := time.Now()
	for _, f := range files {
		if f.temp {
			continue
		}
		age := now.Sub(f.mod).Milliseconds()
		if st.Entries == 0 {
			st.OldestAgeMS = age
		}
		st.Entries++
		st.Bytes += f.size
		st.NewestAgeMS = age
	}
	return st, nil
}

// GCResult reports what a GC pass removed and what remains.
type GCResult struct {
	Removed      int   `json:"removed"`
	RemovedBytes int64 `json:"removed_bytes"`
	Kept         int   `json:"kept"`
	KeptBytes    int64 `json:"kept_bytes"`
}

// GC prunes the cache: every file older than maxAge goes (maxAge <= 0
// disables the age rule), then entries oldest-first until the remainder
// fits in maxBytes (maxBytes <= 0 disables the size rule). The age rule
// also reaps temp files orphaned by a writer killed before its rename (a
// live write is milliseconds old); they count as removed but never as
// kept or toward the size budget. Unbounded cache growth is what kills
// overnight sweeps, so this is wired into `campaign cache gc`. Removal
// errors are ignored per file — a locked file costs one retry on the next
// pass, not the whole sweep.
func (c *Cache) GC(maxAge time.Duration, maxBytes int64) (GCResult, error) {
	var res GCResult
	files, err := c.scan()
	if err != nil {
		return res, err
	}
	var total int64
	for _, f := range files {
		if !f.temp {
			total += f.size
		}
	}
	cutoff := time.Now().Add(-maxAge)
	for _, f := range files {
		evict := (maxAge > 0 && f.mod.Before(cutoff)) || (!f.temp && maxBytes > 0 && total > maxBytes)
		if evict && os.Remove(filepath.Join(c.dir, f.name)) == nil {
			res.Removed++
			res.RemovedBytes += f.size
			if !f.temp {
				total -= f.size
			}
			continue
		}
		if !f.temp {
			res.Kept++
			res.KeptBytes += f.size
		}
	}
	return res, nil
}
