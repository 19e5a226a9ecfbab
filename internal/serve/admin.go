package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"pathsep/internal/obs"
)

// ImageStatus describes the currently serving flat oracle image.
type ImageStatus struct {
	Source     string  `json:"source,omitempty"`
	Generation uint64  `json:"generation"`
	LoadedAt   string  `json:"loaded_at"`
	LoadNs     int64   `json:"load_ns"`
	Readers    int64   `json:"readers"`
	N          int     `json:"n"`
	Eps        float64 `json:"eps"`
	Mode       string  `json:"mode"`
	NumKeys    int     `json:"num_keys"`
	NumEntries int     `json:"num_entries"`
	NumPortals int     `json:"num_portals"`
	Bytes      int     `json:"bytes"`
	// ResidentBytes is the memory the image holds for serving
	// (Flat.ResidentBytes: its tables, sweep lane and walk layout), and
	// LaneAligned reports whether the sweep lane starts on a 64-byte
	// cache-line boundary (the layout Freeze and the decode aim for; false
	// only under exotic allocator behavior).
	ResidentBytes int  `json:"resident_bytes"`
	LaneAligned   bool `json:"lane_aligned"`
}

// ServingStatus is the live request-side accounting. Errors counts every
// rejected request; Errors4xx and Errors5xx split it by status class.
type ServingStatus struct {
	Inflight     int64 `json:"inflight"`
	Queries      int64 `json:"queries"`
	Batches      int64 `json:"batches"`
	BatchPairs   int64 `json:"batch_pairs"`
	Errors       int64 `json:"errors"`
	Errors4xx    int64 `json:"errors_4xx"`
	Errors5xx    int64 `json:"errors_5xx"`
	Reloads      int64 `json:"reloads"`
	ReloadErrors int64 `json:"reload_errors"`
	BatchWorkers int   `json:"batch_workers"`
	MaxBatch     int   `json:"max_batch"`
}

// SlowQuery is one exemplar rendered for the admin surface; Dist is null
// for unreachable pairs (JSON numbers cannot carry +Inf).
type SlowQuery struct {
	U    int32    `json:"u"`
	V    int32    `json:"v"`
	Dist *float64 `json:"dist"`
	Ns   int64    `json:"ns"`
}

// Status is the /admin/status document: everything an operator needs to
// know about a running pathsepd in one read.
type Status struct {
	Service     string        `json:"service"`
	PID         int           `json:"pid"`
	GoVersion   string        `json:"go_version"`
	BuildVCS    string        `json:"build_vcs,omitempty"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Goroutines  int           `json:"goroutines"`
	UptimeSec   float64       `json:"uptime_sec"`
	Image       ImageStatus   `json:"image"`
	Serving     ServingStatus `json:"serving"`
	SlowQueries []SlowQuery   `json:"slow_queries,omitempty"`
	SlowSeen    int64         `json:"slow_queries_seen,omitempty"`
	Metrics     obs.Snapshot  `json:"metrics"`
	// MemoryLimit is the process's soft memory limit in bytes
	// (math.MaxInt64 when none is set), and GCCycles the garbage
	// collections it has completed: together they show how often a heap
	// bound makes the collector run.
	MemoryLimit int64  `json:"memory_limit"`
	GCCycles    uint64 `json:"gc_cycles"`
}

// status assembles the current Status document. It leases the image
// while reading its metadata: images are immutable after publish, but
// holding the lease keeps the generation it reports from draining out
// from under the reads mid-document.
func (s *Server) status() Status {
	st := Status{
		Service:    "pathsepd",
		PID:        os.Getpid(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Goroutines: runtime.NumGoroutine(),
		UptimeSec:  time.Since(s.started).Seconds(),
		Serving: ServingStatus{
			Inflight:     s.inflight.Load(),
			Queries:      s.queries.Value(),
			Batches:      s.batches.Value(),
			BatchPairs:   s.pairs.Value(),
			Errors:       s.errs.Value(),
			Errors4xx:    s.errs4xx.Value(),
			Errors5xx:    s.errs5xx.Value(),
			Reloads:      s.reloads.Value(),
			ReloadErrors: s.reloadErrs.Value(),
			BatchWorkers: s.workers,
			MaxBatch:     s.maxBatch,
		},
		SlowSeen: s.slow.Seen(),
		Metrics:  s.reg.Snapshot(),
		// A negative limit reads the setting without changing it.
		MemoryLimit: debug.SetMemoryLimit(-1),
		GCCycles:    gcCycles(),
	}
	s.withImage(func(im *image) {
		st.Image = ImageStatus{
			Source:        im.source,
			Generation:    im.gen,
			LoadedAt:      im.loadedAt.UTC().Format(time.RFC3339Nano),
			LoadNs:        im.loadNs,
			Readers:       im.readers.Load() - 1, // exclude status's own lease
			N:             im.flat.N(),
			Eps:           im.flat.Eps(),
			Mode:          im.flat.Mode().String(),
			NumKeys:       im.flat.NumKeys(),
			NumEntries:    im.flat.NumEntries(),
			NumPortals:    im.flat.NumPortals(),
			Bytes:         im.bytes,
			ResidentBytes: im.flat.ResidentBytes(),
			LaneAligned:   im.flat.LaneAligned(),
		}
	})
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				st.BuildVCS = kv.Value
			}
		}
	}
	for _, e := range s.slow.Snapshot() {
		sq := SlowQuery{U: e.U, V: e.V, Ns: e.Ns}
		if !math.IsInf(e.Dist, 1) {
			d := e.Dist
			sq.Dist = &d
		}
		st.SlowQueries = append(st.SlowQueries, sq)
	}
	return st
}

// gcCycles returns the garbage collections the process has completed.
func gcCycles() uint64 {
	sample := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// handleStatus answers GET /admin/status with the Status document.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	out, err := json.MarshalIndent(s.status(), "", "  ")
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "status marshal: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = w.Write(out)
	_, _ = w.Write([]byte("\n"))
}
