package autotvm

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"unigpu/internal/templates"
)

// DB is the tuning-records database of §3.2.3: "In order to prevent
// replicated searching in the future, we maintain a database to store the
// results for every convolution workload on each hardware platform." It
// holds two kinds of record under disjoint keys: single best-schedule
// results from the searchers (Tune), and per-layout candidate sets from
// the graph tuner (StoreCandidates), so a whole graph-tuning pass
// round-trips through the database.
type DB struct {
	mu      sync.Mutex
	path    string
	records map[string]StoredRecord
}

// KindCandidates marks a record holding a graph-tuner candidate set
// rather than a single searched schedule.
const KindCandidates = "candidates"

// KindKernel marks a record holding a conv algorithm choice (direct /
// depthwise / gemm) for a workload, as written by the graph
// kernel-selection pass and consulted on later compiles to override the
// cost model.
const KindKernel = "kernel"

// Candidate is one per-layout (block, schedule) choice of a graph-tuner
// search (internal/graphtuner), as the tuner ranks it and the records
// database stores it.
type Candidate struct {
	Block    int              `json:"block"` // channel block x of NCHW[x]c (1 = plain NCHW)
	Config   templates.Config `json:"config"`
	KernelMs float64          `json:"kernel_ms"`
}

// StoredRecord is one persisted tuning result.
type StoredRecord struct {
	Device   string           `json:"device"`
	Workload string           `json:"workload"`
	Kind     string           `json:"kind,omitempty"` // "" = single schedule
	Config   templates.Config `json:"config"`
	Ms       float64          `json:"ms"`
	Trials   int              `json:"trials"`
	// Budget is the per-layout search budget a candidate-set record was
	// produced with; a lookup asking for a bigger budget misses so a cheap
	// early search never permanently shadows a better one.
	Budget     int         `json:"budget,omitempty"`
	Candidates []Candidate `json:"candidates,omitempty"`
	// Kernel is the conv algorithm name of a KindKernel record.
	Kernel string `json:"kernel,omitempty"`
	// DType is the storage dtype a KindKernel record was selected for.
	// Empty means fp32: records written before mixed precision existed
	// load (and keep their keys) unchanged.
	DType string `json:"dtype,omitempty"`
}

func (r StoredRecord) key() string {
	if r.Kind != "" {
		return r.Device + "|" + r.Kind + "|" + dtypeKeySuffix(r.DType) + r.Workload
	}
	return r.Device + "|" + r.Workload
}

// dtypeKeySuffix maps a record dtype to its key segment. fp32 (and the
// legacy empty string) contribute nothing, so pre-existing databases keep
// resolving under the exact keys they were written with.
func dtypeKeySuffix(dtype string) string {
	if dtype == "" || dtype == "fp32" {
		return ""
	}
	return dtype + "|"
}

// NewDB creates an in-memory database; path may be empty for no
// persistence.
func NewDB(path string) *DB {
	return &DB{path: path, records: map[string]StoredRecord{}}
}

// OpenDB loads a database from disk if the file exists. A file that exists
// but cannot be parsed is an error, never a silently empty database.
func OpenDB(path string) (*DB, error) {
	db := NewDB(path)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return db, nil
	}
	if err != nil {
		return nil, err
	}
	var recs []StoredRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("autotvm: tuning database %s is corrupt (%v); delete or restore the file", path, err)
	}
	for _, r := range recs {
		db.records[r.key()] = r
	}
	return db, nil
}

// Save persists the database as a sorted JSON array. The file is written
// to a temporary sibling and renamed into place so a crash mid-write never
// corrupts an existing database.
func (db *DB) Save() error {
	if db.path == "" {
		return nil
	}
	db.mu.Lock()
	recs := make([]StoredRecord, 0, len(db.records))
	for _, r := range db.records {
		recs = append(recs, r)
	}
	db.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Device != recs[j].Device {
			return recs[i].Device < recs[j].Device
		}
		if recs[i].Kind != recs[j].Kind {
			return recs[i].Kind < recs[j].Kind
		}
		if recs[i].Workload != recs[j].Workload {
			return recs[i].Workload < recs[j].Workload
		}
		return recs[i].DType < recs[j].DType
	})
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Dir(db.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(db.path)+".tmp-*")
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
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), db.path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Lookup returns the stored result for a task.
func (db *DB) Lookup(t Task) (Result, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	r, ok := db.records[t.Device.Name+"|"+t.Workload.Key()]
	if !ok {
		return Result{}, false
	}
	return Result{Config: r.Config, Ms: r.Ms, Trials: r.Trials}, true
}

// StoreBest records res for the task unless an existing record is already
// faster, in which case only the search effort (trials / budget) is
// raised so the spent budget is remembered and not re-spent. It returns
// the record now in the database. The compare-and-store runs under one
// lock so concurrent tuners of the same task cannot clobber a faster
// result.
func (db *DB) StoreBest(t Task, res Result) Result {
	return db.storeBest(t, res, res.Trials)
}

func (db *DB) storeBest(t Task, res Result, budget int) Result {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := t.Device.Name + "|" + t.Workload.Key()
	if old, ok := db.records[key]; ok && old.Ms <= res.Ms {
		if res.Trials > old.Trials || budget > old.Budget {
			old.Trials = max(old.Trials, res.Trials)
			old.Budget = max(old.Budget, budget)
			db.records[key] = old
		}
		return Result{Config: old.Config, Ms: old.Ms, Trials: old.Trials}
	}
	db.records[key] = StoredRecord{
		Device:   t.Device.Name,
		Workload: t.Workload.Key(),
		Config:   res.Config,
		Ms:       res.Ms,
		Trials:   res.Trials,
		Budget:   max(budget, res.Trials),
	}
	return res
}

// lookupWithBudget returns a cached result only if it was produced by a
// search at least budget trials deep (an exhausted space counts by its
// requested budget, not by the trials it managed to run).
func (db *DB) lookupWithBudget(t Task, budget int) (Result, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	r, ok := db.records[t.Device.Name+"|"+t.Workload.Key()]
	if !ok || max(r.Trials, r.Budget) < budget {
		return Result{}, false
	}
	return Result{Config: r.Config, Ms: r.Ms, Trials: r.Trials}, true
}

// LookupCandidates returns the stored graph-tuner candidate set for a
// (device, workload) pair, provided it was produced with at least
// minBudget trials per layout.
func (db *DB) LookupCandidates(device, workload string, minBudget int) ([]Candidate, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	r, ok := db.records[device+"|"+KindCandidates+"|"+workload]
	if !ok || r.Budget < minBudget {
		return nil, false
	}
	out := make([]Candidate, len(r.Candidates))
	copy(out, r.Candidates)
	return out, true
}

// StoreCandidates records a graph-tuner candidate set for a (device,
// workload) pair, replacing any smaller-budget set.
func (db *DB) StoreCandidates(device, workload string, budget int, cands []Candidate) {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := device + "|" + KindCandidates + "|" + workload
	if old, ok := db.records[key]; ok && old.Budget > budget {
		return // an existing deeper search wins
	}
	stored := make([]Candidate, len(cands))
	copy(stored, cands)
	db.records[key] = StoredRecord{
		Device:     device,
		Workload:   workload,
		Kind:       KindCandidates,
		Budget:     budget,
		Candidates: stored,
	}
}

// LookupKernelChoiceDType returns the stored conv algorithm name for a
// (device, workload) pair at a storage dtype, if a kernel record exists.
// "" and "fp32" resolve the legacy (dtype-less) key, so databases written
// before mixed precision keep working.
func (db *DB) LookupKernelChoiceDType(device, workload, dtype string) (string, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	r, ok := db.records[device+"|"+KindKernel+"|"+dtypeKeySuffix(dtype)+workload]
	if !ok || r.Kernel == "" {
		return "", false
	}
	return r.Kernel, true
}

// StoreKernelChoiceDType records the conv algorithm chosen for a (device,
// workload) pair at a storage dtype together with its estimated
// per-invocation cost ("" and "fp32" both write the legacy fp32 record).
func (db *DB) StoreKernelChoiceDType(device, workload, dtype, kernel string, ms float64) {
	if dtype == "fp32" {
		dtype = ""
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.records[device+"|"+KindKernel+"|"+dtypeKeySuffix(dtype)+workload] = StoredRecord{
		Device:   device,
		Workload: workload,
		Kind:     KindKernel,
		Kernel:   kernel,
		DType:    dtype,
		Ms:       ms,
	}
}

// Len returns the number of stored records.
func (db *DB) Len() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.records)
}

// Tune returns the cached result for the task or runs the model-guided
// search and stores the winner. A cached record produced with a smaller
// measurement budget than opts.Budget does not satisfy the lookup — the
// task is re-searched and the faster of the two results kept — so a cheap
// early search never permanently shadows a better one.
func Tune(t Task, opts Options, db *DB) Result {
	opts.normalize()
	if db != nil {
		if r, ok := db.lookupWithBudget(t, opts.Budget); ok {
			return r
		}
	}
	res := ModelGuidedSearch(t, opts)
	if db != nil {
		return db.storeBest(t, res, opts.Budget)
	}
	return res
}
