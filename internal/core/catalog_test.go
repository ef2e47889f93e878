package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
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

// catalogKey normalises a published metric name to the form the catalog
// documents it under: labels become their templated spelling, and the two
// name families minted per bound collapse onto their <bound> placeholder.
func catalogKey(name string) string {
	base, labels := obs.ParseName(name)
	if len(labels) > 0 {
		// Labelled families are documented as base{label=<label>,...}; the
		// base name alone identifies the catalog entry.
		return base
	}
	if m := regexp.MustCompile(`^simjoin_pruned_by_[a-z_]+_total$`).FindString(base); m != "" {
		return "simjoin_pruned_by_<bound>_total"
	}
	if m := regexp.MustCompile(`^filter_bound_[a-z_]+_(evaluated|pruned|eval_nanoseconds)_total$`).FindStringSubmatch(base); m != nil {
		return "filter_bound_<name>_<what>_total"
	}
	return base
}

// TestCatalogCoversJoinInstruments keeps DESIGN.md §12 honest in both
// directions: every metric a fully instrumented join publishes, and every key
// of an emitted event-log record, must appear in the catalog (an instrument
// added without documentation fails here), and every simjoin_* metric the
// catalog documents must be published by one of the joins below (an
// instrument deleted from the code must leave the catalog too).
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
	if _, _, err := JoinIndexed(BuildIndex(d), u, iopts); err != nil {
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
	published := map[string]bool{}
	for _, name := range names {
		key := catalogKey(name)
		published[key] = true
		if !strings.Contains(catalog, key) {
			t.Errorf("metric %q (catalog key %q) missing from DESIGN.md §12", name, key)
		}
	}
	for _, m := range regexp.MustCompile("`(simjoin_[a-z0-9_<>]+)").FindAllStringSubmatch(catalog, -1) {
		if !published[m[1]] {
			t.Errorf("DESIGN.md §12 documents %q, which no instrumented join published", m[1])
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
		if !strings.Contains(catalog, fmt.Sprintf("`%s`", k)) {
			t.Errorf("event key %q missing from DESIGN.md §12 event table", k)
		}
	}
}
