// Package storage simulates the stable storage the paper assumes processes
// use to survive crashes ("some sort of local stable storage", Section
// 2.1.1). A Disk holds records that survive crash/recovery cycles and counts
// synchronous writes, which is the currency of the paper's disk-write
// arguments (Sections 4.2 and 4.4): acceptors must write on every accept,
// coordinators never write, and the MCount scheme trades per-1b writes for
// one write per recovery.
package storage

import "sync"

// Disk is simulated stable storage for one process. The zero value is an
// empty, usable disk. Records written to a Disk survive the owning
// process's crashes (the process's volatile state does not). Disk is safe
// for concurrent use.
type Disk struct {
	mu     sync.Mutex
	recs   map[string]any
	writes uint64
}

// Put durably stores value under key, counting one synchronous disk write.
func (d *Disk) Put(key string, value any) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.recs == nil {
		d.recs = make(map[string]any)
	}
	d.recs[key] = value
	d.writes++
}

// PutAll durably stores several records with a single synchronous write,
// modelling one frame of the on-disk log.
func (d *Disk) PutAll(records map[string]any) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.recs == nil {
		d.recs = make(map[string]any)
	}
	for k, v := range records {
		d.recs[k] = v
	}
	d.writes++
}

// Get reads the record stored under key.
func (d *Disk) Get(key string) (any, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	v, ok := d.recs[key]
	return v, ok
}

// Writes returns the number of synchronous writes performed so far.
func (d *Disk) Writes() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writes
}

// ResetWrites zeroes the write counter (the data stays). Benchmarks use it
// to scope counting to a measurement window.
func (d *Disk) ResetWrites() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writes = 0
}

// Len returns the number of stored records.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.recs)
}

// Drop durably deletes the records under keys with one write.
func (d *Disk) Drop(keys []string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, k := range keys {
		delete(d.recs, k)
	}
	d.writes++
}

// Compact is a no-op: a map holds no dead space.
func (d *Disk) Compact() error { return nil }
