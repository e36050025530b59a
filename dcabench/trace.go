package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// span is one timed interval of the traced run. Parent is the ID of the
// span that caused it, 0 for a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // since the trace began
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory; the run writes them out once at exit. It
// is used from one goroutine only. A nil *tracer records nothing, so the
// untraced path calls the same code with no spans.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID:     len(t.spans) + 1,
		Parent: parent,
		Name:   name,
		Start:  time.Since(t.t0).Seconds(),
	})
	return len(t.spans)
}

// end closes the span with the given ID.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Seconds()
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.End - s.Start
		}
	}
	return sum
}

// sharePkgs are the packages whose flat CPU share the traced run
// reports; everything else folds into "other".
var sharePkgs = []string{
	"cache", "dcache", "core", "sched", "dram", "event", "cpu", "workload",
	"rng", "mempred", "exp", "rescache", "config", "stats", "runtime",
}

// profileShares reads a CPU profile with the offline `go tool pprof` and
// returns each package's share of flat samples, keyed as in sharePkgs
// plus "other".
func profileShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTop(out)
}

// parseTop folds the flat% column of `pprof -top` output by package.
func parseTop(out []byte) (map[string]float64, error) {
	shares := map[string]float64{"other": 0}
	for _, p := range sharePkgs {
		shares[p] = 0
	}
	header := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", sc.Text(), err)
		}
		shares[shareKey(strings.Join(f[5:], " "))] += pct / 100
	}
	if !header {
		return nil, fmt.Errorf("pprof printed no -top table")
	}
	return shares, nil
}

// shareKey maps a pprof function name to its sharePkgs entry.
func shareKey(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if rest, ok := strings.CutPrefix(pkg, "dcasim/internal/"); ok {
		top, _, _ := strings.Cut(rest, "/")
		for _, p := range sharePkgs {
			if p == top {
				return p
			}
		}
	}
	return "other"
}
