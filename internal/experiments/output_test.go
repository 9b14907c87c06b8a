package experiments

import (
	"bytes"
	"context"
	"os"
	"testing"
)

// TestRunAllMatchesCommittedOutput pins experiments_output.txt, the
// published numbers: RunAll at hitl-experiments' defaults (seed 20080124,
// each experiment's own subject count) must render the committed file
// byte for byte.
func TestRunAllMatchesCommittedOutput(t *testing.T) {
	want, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	outs, err := RunAll(context.Background(), Config{Seed: 20080124})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, o := range outs {
		if err := o.WriteText(&got); err != nil {
			t.Fatalf("render %s: %v", o.ID, err)
		}
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("output differs from experiments_output.txt at line %d:\ngot  %q\nwant %q", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("output has %d lines, experiments_output.txt has %d", len(gotLines), len(wantLines))
}
