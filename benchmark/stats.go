package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"finbench/internal/benchreg"
)

// percentile returns the nearest-rank q-quantile of an ascending slice;
// 0 when empty.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// sortedCopy returns xs ascending without modifying it.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, or 0 when b is 0 (nothing was counted).
func ratio(a, b float64) float64 {
	if b == 0 { // finlint:ignore floateq an exact zero count, never a computed value
		return 0
	}
	return a / b
}

// spread says how far apart repeated measurements of one metric are, as
// a share of their median. With four or more values it is the distance
// between the first and third quartile, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives — the statistic a benchmark's
// steadiness is judged by. With fewer (quartiles of two or three values
// are extrapolations) it is the plain range.
func spread(xs []float64) float64 {
	s := sortedCopy(xs)
	n, m := len(s), len(s)+1
	if n < 2 {
		return 0
	}
	if n < 4 {
		return ratio(s[n-1]-s[0], benchreg.Median(s))
	}
	quartile := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(quartile(3)-quartile(1), benchreg.Median(s))
}

// window is the measured interval. A request counts towards it only when
// its reply was fully read inside it; one still in flight at the close is
// waited for and dropped, so a slow server is never credited with work it
// finished late.
type window struct {
	open, close time.Time
}

func (w window) contains(done time.Time) bool {
	return !done.Before(w.open) && !done.After(w.close)
}

func (w window) seconds() float64 { return w.close.Sub(w.open).Seconds() }

// rate is count per second of the window.
func (w window) rate(count int64) float64 { return ratio(float64(count), w.seconds()) }

// span is one traced interval. Spans of one request share Req; Parent is
// the ID of the span that caused this one (0 for a root).
type span struct {
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Req    int64             `json:"req"`
	ID     int32             `json:"id"`
	Parent int32             `json:"parent"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. Times are nanoseconds
// since the tracer was made.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// at converts a wall-clock reading to the tracer's clock.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.t0)) }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, req int64, parent int32, attrs map[string]string) int32 {
	start := t.now()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, Start: start, Req: req, ID: id, Parent: parent, Attrs: attrs})
	t.mu.Unlock()
	return id
}

// end closes the span.
func (t *tracer) end(id int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// add records a span whose interval is already known.
func (t *tracer) add(name string, start, end, req int64, parent int32, attrs map[string]string) int32 {
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Req: req, ID: id, Parent: parent, Attrs: attrs})
	t.mu.Unlock()
	return id
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Overlapping children are
// merged first, so two concurrent children are not subtracted twice, and
// a child is clipped to its parent's interval.
func selfTimes(spans []span) map[int32]int64 {
	type iv struct{ lo, hi int64 }
	children := make(map[int32][]iv)
	byID := make(map[int32]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	for i := range spans {
		s := &spans[i]
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			children[s.Parent] = append(children[s.Parent], iv{lo, hi})
		}
	}
	self := make(map[int32]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		ivs := children[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, edge int64
		edge = s.Start
		for _, c := range ivs {
			if c.hi <= edge {
				continue
			}
			covered += c.hi - max(c.lo, edge)
			edge = c.hi
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// unattributedFrac is, for one workload's requests to one endpoint in the
// in-process replay, one minus the layer chain's self time over the real
// handler's time: the share of a request no layer's public function
// accounts for. Both are medians over the replayed requests, so one
// request that met a garbage collection does not decide the number. The
// replay marks the handler span and the chain's parent span with workload
// and endpoint; the router-only partition step is not the handler's work.
func unattributedFrac(spans []span, workload, endpoint string) float64 {
	self := selfTimes(spans)
	chainAt := make(map[int32]int) // chain parent span -> index in chains
	var handler, chains []float64
	for i := range spans {
		s := &spans[i]
		if s.Attrs["endpoint"] != endpoint || s.Attrs["workload"] != workload {
			continue
		}
		switch s.Name {
		case "serve.handler":
			handler = append(handler, float64(s.End-s.Start))
		case "layers":
			chainAt[s.ID] = len(chains)
			chains = append(chains, 0)
		}
	}
	for i := range spans {
		s := &spans[i]
		if at, ok := chainAt[s.Parent]; ok && s.Name != "scenario.partition" {
			chains[at] += float64(self[s.ID])
		}
	}
	if len(handler) == 0 {
		return 0
	}
	return 1 - ratio(benchreg.Median(chains), benchreg.Median(handler))
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	return f.Close()
}

// clockTicksPerSecond is USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux ABI Go supports.
const clockTicksPerSecond = 100

// parseProcStat extracts utime+stime, in clock ticks, from the text of
// /proc/<pid>/stat. The command name may contain spaces and parentheses,
// so fields are counted from the last ')'.
func parseProcStat(text string) (ticks uint64, err error) {
	i := strings.LastIndexByte(text, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", text)
	}
	f := strings.Fields(text[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	u, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	s, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return u + s, nil
}

// cpuTicks sums utime+stime over the pids; a pid that cannot be read is
// an error, because a vanished server invalidates the window.
func cpuTicks(pids []int) (uint64, error) {
	var total uint64
	for _, pid := range pids {
		data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
		if err != nil {
			return 0, err
		}
		t, err := parseProcStat(string(data))
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

// peakRSSMB sums VmHWM (peak resident set) over the pids, in MiB.
func peakRSSMB(pids []int) float64 {
	var kb float64
	for _, pid := range pids {
		data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					v, _ := strconv.ParseFloat(f[0], 64) // a malformed line reads as 0
					kb += v
				}
			}
		}
	}
	return kb / 1024
}
