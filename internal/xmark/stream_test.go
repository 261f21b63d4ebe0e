package xmark

import (
	"bytes"
	"testing"

	"repro/internal/xmltree"
)

// The streaming writer must render exactly what serializing the
// materialized fragment renders — the scale-smoke lane depends on the
// two generation paths producing one corpus.
func TestStreamMatchesSerialize(t *testing.T) {
	for _, factor := range []float64{0.001, 0.01} {
		cfg := Config{Factor: factor, Seed: 7}
		var streamed bytes.Buffer
		if err := StreamXML(&streamed, cfg); err != nil {
			t.Fatalf("StreamXML: %v", err)
		}
		materialized := xmltree.SerializeToString(Generate(cfg), 0, xmltree.SerializeOptions{})
		if streamed.String() != materialized {
			t.Fatalf("factor %g: streamed output differs from serialized fragment (%d vs %d bytes)",
				factor, streamed.Len(), len(materialized))
		}
	}
}

// A fixed seed must yield identical bytes run over run — benchmark
// baselines and the differential CI lanes assume regenerable corpora.
func TestStreamDeterministicSeed(t *testing.T) {
	cfg := Config{Factor: 0.005, Seed: 42}
	var a, b bytes.Buffer
	if err := StreamXML(&a, cfg); err != nil {
		t.Fatal(err)
	}
	if err := StreamXML(&b, cfg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same seed produced different bytes")
	}
	var c bytes.Buffer
	if err := StreamXML(&c, Config{Factor: 0.005, Seed: 43}); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("different seeds produced identical bytes (rng not seeded?)")
	}
}
