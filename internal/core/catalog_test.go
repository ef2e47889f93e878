package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"simjoin/internal/obs"
)

// designSection12 returns the text of DESIGN.md §12 (the instrument catalog).
func designSection12(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	start := strings.Index(text, "## 12.")
	if start < 0 {
		t.Fatal("DESIGN.md has no §12 instrument catalog")
	}
	text = text[start:]
	if end := strings.Index(text[1:], "\n## "); end >= 0 {
		text = text[:end+1]
	}
	return text
}

// backticked returns the names the text documents in backticks, each with
// any {label=...} template stripped: a labelled family is documented as
// base{label=<label>,...} and published under the same base name.
func backticked(text string) map[string]bool {
	names := map[string]bool{}
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(text, -1) {
		name := m[1]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		names[name] = true
	}
	return names
}

// metricsSubsection returns the catalog's "Metrics published by a join"
// subsection, which ends where the event-log table begins.
func metricsSubsection(t *testing.T, catalog string) string {
	t.Helper()
	start := strings.Index(catalog, "### Metrics published by a join")
	end := strings.Index(catalog, "### Event-log record")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md §12 lacks its metrics or event-log subsection")
	}
	return catalog[start:end]
}

// joinCounterNames is every counter base name a join may publish apart from
// the obs_* self-accounting counters: the Stats field table's names, the
// per-bound profile's labelled families, and the watchdog's stall counter.
func joinCounterNames() map[string]bool {
	names := map[string]bool{
		"simjoin_bound_evals_total":            true,
		"simjoin_bound_prunes_total":           true,
		"simjoin_bound_eval_nanoseconds_total": true,
		"simjoin_watchdog_stalls_total":        true,
	}
	for _, c := range statsCounterSpec {
		names[c.name] = true
	}
	for _, c := range statsDurationSpec {
		names[c.name] = true
	}
	return names
}

// TestCatalogCoversJoinInstruments keeps DESIGN.md §12 honest in both
// directions: every metric a fully instrumented join publishes, and every key
// of an emitted event-log record, must be documented in the catalog under
// its exact name (an instrument added without documentation fails here), and
// every simjoin_* or ged_* metric the catalog's metrics subsection documents
// must be published by one of the joins below (an instrument deleted from
// the code must leave the catalog too). It also holds the join to one name
// per quantity: every counter it publishes is a Stats field's, a per-bound
// profile entry, the watchdog's, or obs self-accounting.
func TestCatalogCoversJoinInstruments(t *testing.T) {
	catalog := designSection12(t)

	d, u := smallWorkload(19, 10, 10)
	var events bytes.Buffer
	opts := DefaultOptions()
	opts.Mode = ModeSimJOpt
	opts.Alpha = 0.5
	opts.Workers = 2
	opts.Obs = obs.New()
	opts.Tracer = obs.NewTracer(256)
	opts.Events = obs.NewEventLog(&events, 1)
	if _, _, err := Join(d, u, opts); err != nil {
		t.Fatal(err)
	}
	// The prebuilt-index feed publishes into the same registry.
	iopts := opts
	iopts.Events = nil
	iopts.Mode = ModeSimJ
	if _, _, err := JoinWith(context.Background(), BuildIndex(d).Source(u), iopts); err != nil {
		t.Fatal(err)
	}

	snap := opts.Obs.Snapshot()
	var names []string
	for name := range snap.Counters {
		names = append(names, name)
	}
	for name := range snap.Gauges {
		names = append(names, name)
	}
	for name := range snap.Histograms {
		names = append(names, name)
	}
	if len(names) == 0 {
		t.Fatal("instrumented join published no metrics")
	}
	documented := backticked(catalog)
	published := map[string]bool{}
	for _, name := range names {
		base, _, _ := strings.Cut(name, "{")
		published[base] = true
		if !documented[base] {
			t.Errorf("metric %q missing from DESIGN.md §12", name)
		}
	}
	for name := range backticked(metricsSubsection(t, catalog)) {
		if (strings.HasPrefix(name, "simjoin_") || strings.HasPrefix(name, "ged_")) && !published[name] {
			t.Errorf("DESIGN.md §12 documents %q, which no instrumented join published", name)
		}
	}
	fromStats := joinCounterNames()
	for name := range snap.Counters {
		base, _, _ := strings.Cut(name, "{")
		if !fromStats[base] && !strings.HasPrefix(base, "obs_") {
			t.Errorf("join published counter %q, which is neither a Stats field nor a per-bound profile entry", name)
		}
	}

	// Every key of every emitted event record — including the nested bounds
	// entries — must be documented as `key` in the catalog's event table.
	sc := bufio.NewScanner(&events)
	keys := map[string]bool{}
	for sc.Scan() {
		var ev map[string]interface{}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		for k, v := range ev {
			keys[k] = true
			if list, ok := v.([]interface{}); ok {
				for _, item := range list {
					if obj, ok := item.(map[string]interface{}); ok {
						for kk := range obj {
							keys[kk] = true
						}
					}
				}
			}
		}
	}
	if len(keys) == 0 {
		t.Fatal("event log emitted no records")
	}
	for k := range keys {
		if !documented[k] {
			t.Errorf("event key %q missing from DESIGN.md §12 event table", k)
		}
	}
}
