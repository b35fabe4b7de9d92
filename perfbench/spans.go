package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer. Op is the op the
// call belongs to, or -1 for set-up. Times are nanoseconds since the
// recorder was created.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil *recorder is the
// untraced mode: begin and end do nothing.
type recorder struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

// spanRef is an open span.
type spanRef struct {
	id, parent, op int64
	name           string
	start          time.Time
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name string, parent, op int64) spanRef {
	if r == nil {
		return spanRef{}
	}
	return spanRef{id: r.next.Add(1), parent: parent, op: op, name: name, start: time.Now()}
}

func (r *recorder) end(s spanRef) {
	if r == nil {
		return
	}
	end := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{
		ID: s.id, Parent: s.parent, Op: s.op, Name: s.name,
		Start: s.start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	r.mu.Unlock()
}

// named returns the durations (ms) of the spans called name, set-up spans
// (op -1) or op spans as asked.
func (r *recorder) named(name string, setup bool) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && (s.Op < 0) == setup {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfTimes computes each span's self time: its duration minus the part of
// its interval covered by its children.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, reach int64 = 0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// spanStats summarizes the spans of one name.
type spanStats struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	P50MS   float64 `json:"p50_ms"`
}

func summarize(spans []span) map[string]spanStats {
	self := selfTimes(spans)
	durs := map[string][]float64{}
	out := map[string]spanStats{}
	for _, s := range spans {
		st := out[s.Name]
		st.Count++
		st.TotalMS += ms(s.dur())
		st.SelfMS += ms(self[s.ID])
		out[s.Name] = st
		durs[s.Name] = append(durs[s.Name], ms(s.dur()))
	}
	for name, st := range out {
		st.P50MS = median(durs[name])
		out[name] = st
	}
	return out
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
