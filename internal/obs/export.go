package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// Snapshot is a point-in-time copy of every instrument in a registry,
// suitable for JSON serialisation.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]float64      `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// HistSnapshot is one histogram's state. Bucket counts are cumulative, in
// Prometheus style, ending with the +Inf bucket.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Sum     float64      `json:"sum"`
	Buckets []HistBucket `json:"buckets"`
}

// HistBucket pairs an upper bound (formatted, "+Inf" for the last) with the
// cumulative count of observations at or below it.
type HistBucket struct {
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

func formatBound(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(b, 'g', -1, 64)
}

func parseBound(le string) float64 {
	if le == "+Inf" {
		return math.Inf(1)
	}
	v, err := strconv.ParseFloat(le, 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

// Quantile estimates the q-quantile (q in [0, 1]) of the observations from
// the cumulative bucket counts, interpolating linearly inside the bucket
// that crosses the target rank (the Prometheus histogram_quantile
// estimator). Observations in the +Inf bucket are reported as the last
// finite upper bound — the estimate saturates rather than invents values.
// Returns NaN for an empty histogram.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	prevCum := int64(0)
	lower := 0.0
	for _, b := range s.Buckets {
		upper := parseBound(b.Le)
		if float64(b.Count) >= rank && b.Count > prevCum {
			if math.IsInf(upper, 1) {
				return lower // saturate at the last finite bound
			}
			frac := (rank - float64(prevCum)) / float64(b.Count-prevCum)
			return lower + (upper-lower)*frac
		}
		prevCum = b.Count
		if !math.IsInf(upper, 1) && !math.IsNaN(upper) {
			lower = upper
		}
	}
	return lower
}

func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count.Load(), Sum: h.Sum()}
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		bound := math.Inf(1)
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		s.Buckets = append(s.Buckets, HistBucket{Le: formatBound(bound), Count: cum})
	}
	return s
}

// Snapshot copies every instrument's current value. A nil registry yields an
// empty (but non-nil-mapped) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counts {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WritePrometheus writes every instrument in the Prometheus text exposition
// format (version 0.0.4), deterministically ordered by name. Labelled names
// produced by Name are emitted as-is; their TYPE line uses the base name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()

	typed := map[string]string{} // base name -> TYPE already emitted
	emitType := func(name, typ string) string {
		base, _ := splitName(name)
		if typed[base] == "" {
			typed[base] = typ
			return fmt.Sprintf("# TYPE %s %s\n", base, typ)
		}
		return ""
	}

	var names []string
	for n := range snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := io.WriteString(w, emitType(n, "counter")); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", n, snap.Counters[n]); err != nil {
			return err
		}
	}

	names = names[:0]
	for n := range snap.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := io.WriteString(w, emitType(n, "gauge")); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", n,
			strconv.FormatFloat(snap.Gauges[n], 'g', -1, 64)); err != nil {
			return err
		}
	}

	names = names[:0]
	for n := range snap.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := io.WriteString(w, emitType(n, "histogram")); err != nil {
			return err
		}
		h := snap.Histograms[n]
		base, labels := splitName(n)
		for _, b := range h.Buckets {
			lbl := fmt.Sprintf(`le="%s"`, b.Le)
			if labels != "" {
				lbl = labels + "," + lbl
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", base, lbl, b.Count); err != nil {
				return err
			}
		}
		suffix := ""
		if labels != "" {
			suffix = "{" + labels + "}"
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", base, suffix,
			strconv.FormatFloat(h.Sum, 'g', -1, 64)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", base, suffix, h.Count); err != nil {
			return err
		}
	}
	return nil
}
