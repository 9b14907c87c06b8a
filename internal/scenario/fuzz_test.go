package scenario_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hitl/internal/scenario"
	_ "hitl/internal/scenario/all"
)

// FuzzSpec holds the properties front doors rely on to normalize and
// digest a spec once at decode: for every spec ParseSpec accepts,
// validation fails only with a *SpecError, Normalize is idempotent, the
// one-pass digest of the normalized spec (Digest) equals Canonical of the
// raw spec — and of the normalized one, which Canonical normalizes again —
// and the digest survives re-marshalling the normalized spec under another
// worker count, which is how a shard spec reaches a worker. Seeded from
// examples/scenarios; `make fuzz` runs it for a fixed time.
func FuzzSpec(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join(examplesDir, "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example specs under %s (%v)", examplesDir, err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		spec, err := scenario.ParseSpec(bytes.NewReader(raw))
		if err != nil {
			return
		}
		norm, err := scenario.Normalize(spec)
		if err != nil {
			var se *scenario.SpecError
			if !errors.As(err, &se) {
				t.Fatalf("Normalize error is %T, not *SpecError: %v", err, err)
			}
			return
		}
		again, err := scenario.Normalize(norm)
		if err != nil {
			t.Fatalf("normalizing a normalized spec: %v", err)
		}
		if !reflect.DeepEqual(again, norm) {
			t.Fatalf("Normalize is not idempotent:\n%+v\nvs\n%+v", again, norm)
		}

		want, err := scenario.Canonical(spec)
		if err != nil {
			t.Fatalf("Canonical of a valid spec: %v", err)
		}
		if got, err := scenario.Digest(norm); err != nil || got != want {
			t.Fatalf("Digest(norm) = %s (%v), Canonical(raw) = %s", got, err, want)
		}
		if got, err := scenario.Canonical(norm); err != nil || got != want {
			t.Fatalf("Canonical(norm) = %s (%v), Canonical(raw) = %s", got, err, want)
		}

		wire, err := json.Marshal(norm)
		if err != nil {
			t.Fatalf("marshalling the normalized spec: %v", err)
		}
		respelled, err := scenario.ParseSpec(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("re-parsing the normalized spec %s: %v", wire, err)
		}
		respelled.Workers = norm.Workers + 3
		if got, err := scenario.Canonical(respelled); err != nil || got != want {
			t.Fatalf("respelled digest = %s (%v), want %s", got, err, want)
		}
	})
}
