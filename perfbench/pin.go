//go:build trace

package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func init() { writePin = writePinned }

// writePinned adds the workload's correctness values for e.seed to the pins
// file. serve-live has none: its gate compares the live run with an
// offline replay of the same run.
func writePinned(e *env, workload, path string) error {
	var v any
	var err error
	switch workload {
	case "ingest-paper", "ingest-proxy":
		w := ingestPaper
		if workload == "ingest-proxy" {
			w = ingestProxy
		}
		ins, ierr := w.inputs(e)
		if ierr != nil {
			return ierr
		}
		v, err = computeIngestReference(ins)
	case "eval-point":
		v, err = computeEvalReference(e.seed)
	default:
		return fmt.Errorf("%s has no pinned values", workload)
	}
	if err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if e.pins == nil {
		e.pins = map[string]json.RawMessage{}
	}
	e.pins[pinKey(workload, e.seed)] = b
	out, err := json.MarshalIndent(e.pins, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("pinned %s: %s\n", pinKey(workload, e.seed), b)
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
