package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-format (version 0.0.4) exposition of a Registry.
//
// Every instrument is exposed under the "pathsep_" namespace with its
// dotted name flattened ("oracle.query_ns" -> "pathsep_oracle_query_ns"):
// counters as counter metrics, gauges as gauge metrics, and the
// fixed-bucket exponential histograms as histogram metrics with the
// per-bucket counts converted to Prometheus's cumulative form plus the
// mandatory +Inf bucket, _sum and _count series. Output is sorted by
// exposed metric name, so consecutive scrapes of an idle registry are
// byte-identical and the golden-file test can pin the format down.

// promContentType is the Content-Type of the text exposition format.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// promPrefix namespaces every exposed metric.
const promPrefix = "pathsep_"

// overflowLe is the Le reported by the histogram overflow bucket; values
// at or above it are really "greater than the last finite bound", so the
// exposition folds them into the +Inf bucket.
var overflowLe = math.Ldexp(1, histBuckets-1)

// promHelp carries HELP text for the well-known instrument names. Names
// not listed here fall back to a generic line quoting the dotted name.
var promHelp = map[string]string{
	"oracle.query_ns":           "Latency of one oracle distance query in nanoseconds.",
	"oracle.query_portals":      "Portal candidates scanned by one distance query.",
	"oracle.batch_qps":          "Throughput of the most recent QueryBatch call in queries per second.",
	"oracle.flat_bytes":         "Encoded size of the attached flat oracle image in bytes.",
	"oracle.resident_bytes":     "Memory the attached flat oracle image holds for serving in bytes.",
	"serve.queries":             "Single-query HTTP requests answered.",
	"serve.batches":             "Batch HTTP requests answered (JSON and binary).",
	"serve.batch_pairs":         "Query pairs answered through the batch endpoints.",
	"serve.errors":              "HTTP requests rejected with a client or server error.",
	"serve.errors_4xx":          "HTTP requests rejected with a 4xx client error.",
	"serve.errors_5xx":          "HTTP requests rejected with a 5xx server error.",
	"serve.inflight":            "Query requests currently being served.",
	"serve.query_request_ns":    "Wall-clock time of one GET /query request in nanoseconds.",
	"serve.path_request_ns":     "Wall-clock time of one GET /query/path request in nanoseconds.",
	"serve.batch_request_ns":    "Wall-clock time of one POST /query/batch request in nanoseconds.",
	"serve.batchbin_request_ns": "Wall-clock time of one POST /query/batchbin request in nanoseconds.",
	"go.goroutines":             "Live goroutines at scrape time.",
	"go.gomaxprocs":             "GOMAXPROCS at scrape time.",
	"go.heap_alloc_bytes":       "Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).",
	"go.heap_sys_bytes":         "Bytes of heap memory obtained from the OS (runtime.MemStats.HeapSys).",
	"go.heap_objects":           "Number of allocated heap objects.",
	"go.stack_sys_bytes":        "Bytes of stack memory obtained from the OS.",
	"go.next_gc_bytes":          "Heap size target of the next GC cycle.",
	"go.gc_cycles":              "Completed GC cycles since process start.",
	"go.gc_pause_total_ns":      "Cumulative GC stop-the-world pause time in nanoseconds.",
	"go.total_alloc_bytes":      "Cumulative bytes allocated for heap objects since process start.",
}

// promName flattens a dotted instrument name into a valid Prometheus
// metric name: the "pathsep_" prefix followed by the name with every rune
// outside [a-zA-Z0-9_:] replaced by '_'. The prefix also keeps a leading
// digit legal.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(promPrefix) + len(name))
	b.WriteString(promPrefix)
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP line per the exposition format: backslash and
// newline are the only characters with escape sequences.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a sample value the way Prometheus clients do:
// shortest round-trip representation.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promKind discriminates the three instrument families in the merged,
// name-sorted exposition list.
type promKind int

const (
	promCounter promKind = iota
	promGauge
	promHistogram
)

func (k promKind) String() string {
	switch k {
	case promCounter:
		return "counter"
	case promGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// promMetric is one instrument scheduled for exposition.
type promMetric struct {
	name string // exposed (sanitized) name
	orig string // dotted registry name
	kind promKind
}

// WritePrometheus writes the registry's current state in the Prometheus
// text exposition format, sorted by exposed metric name. A nil registry
// writes nothing. The error is the writer's.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	list := make([]promMetric, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for _, name := range sortedKeys(s.Counters) {
		list = append(list, promMetric{promName(name), name, promCounter})
	}
	for _, name := range sortedKeys(s.Gauges) {
		list = append(list, promMetric{promName(name), name, promGauge})
	}
	for _, name := range sortedKeys(s.Histograms) {
		list = append(list, promMetric{promName(name), name, promHistogram})
	}
	// Distinct dotted names can sanitize to the same exposed name; suffix
	// later claimants with their family so the exposition stays valid.
	used := make(map[string]bool, len(list))
	for i := range list {
		if used[list[i].name] {
			list[i].name += "_" + list[i].kind.String()
		}
		used[list[i].name] = true
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].name != list[j].name {
			return list[i].name < list[j].name
		}
		return list[i].orig < list[j].orig
	})

	var b strings.Builder
	for _, m := range list {
		help, ok := promHelp[m.orig]
		if !ok {
			help = fmt.Sprintf("pathsep %s %q.", m.kind, m.orig)
		}
		fmt.Fprintf(&b, "# HELP %s %s\n", m.name, escapeHelp(help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
		switch m.kind {
		case promCounter:
			fmt.Fprintf(&b, "%s %d\n", m.name, s.Counters[m.orig])
		case promGauge:
			fmt.Fprintf(&b, "%s %d\n", m.name, s.Gauges[m.orig])
		case promHistogram:
			h := s.Histograms[m.orig]
			cum := int64(0)
			for _, bk := range h.Buckets {
				if bk.Le >= overflowLe {
					// The overflow bucket has no finite upper bound; its
					// count is carried by the +Inf bucket below.
					continue
				}
				cum += bk.Count
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", m.name, formatFloat(bk.Le), cum)
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m.name, h.Count)
			fmt.Fprintf(&b, "%s_sum %s\n", m.name, formatFloat(h.Sum))
			fmt.Fprintf(&b, "%s_count %d\n", m.name, h.Count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
