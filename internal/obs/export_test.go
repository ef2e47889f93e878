package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Counter("join_pairs_total").Add(7)
	r.Counter(Name("qa_questions_total", "system", "template")).Add(2)
	r.Gauge("workers").Set(4)
	h := r.Histogram("prune_seconds", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE join_pairs_total counter\n",
		"join_pairs_total 7\n",
		"# TYPE qa_questions_total counter\n",
		`qa_questions_total{system="template"} 2` + "\n",
		"# TYPE workers gauge\n",
		"workers 4\n",
		"# TYPE prune_seconds histogram\n",
		`prune_seconds_bucket{le="0.01"} 1` + "\n",
		`prune_seconds_bucket{le="0.1"} 1` + "\n",
		`prune_seconds_bucket{le="+Inf"} 2` + "\n",
		"prune_seconds_sum 0.505\n",
		"prune_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n---\n%s", want, out)
		}
	}
}

func TestWritePrometheusLabelledHistogram(t *testing.T) {
	r := New()
	r.Histogram(Name("qa_seconds", "system", "gAnswer"), []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE qa_seconds histogram\n",
		`qa_seconds_bucket{system="gAnswer",le="1"} 1` + "\n",
		`qa_seconds_sum{system="gAnswer"} 0.5` + "\n",
		`qa_seconds_count{system="gAnswer"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q\n---\n%s", want, out)
		}
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("c_total").Add(3)
	r.Gauge("g").Set(1.25)
	r.Histogram("h", []float64{10}).Observe(3)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	if snap.Counters["c_total"] != 3 || snap.Gauges["g"] != 1.25 {
		t.Errorf("round trip lost values: %+v", snap)
	}
	h := snap.Histograms["h"]
	if h.Count != 1 || h.Sum != 3 || len(h.Buckets) != 2 || h.Buckets[1].Le != "+Inf" {
		t.Errorf("histogram round trip: %+v", h)
	}
}
