// Command goldengen regenerates testdata/golden_tables.json: the sha256 of
// every experiment table rendered at Seed 1, Scale 0.02 — the fingerprints
// TestBuilderPreservesSeedTables pins. Run it only when a table's content is
// SUPPOSED to change, and say why in the commit.
//
//	go run ./internal/experiments/goldengen > internal/experiments/testdata/golden_tables.json
//
// It writes only the fingerprints. The tables behind them are what
// zhuge-bench writes to dir/<id>.txt at the same configuration:
//
//	zhuge-bench -exp all -scale 0.02 -seed 1 -o dir
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"github.com/zhuge-project/zhuge/internal/experiments"
)

func main() {
	out := map[string]string{}
	for _, e := range experiments.All() {
		tab := e.Run(experiments.Config{Seed: 1, Scale: 0.02, Workers: 0})
		h := sha256.Sum256([]byte(tab.String()))
		out[e.ID] = hex.EncodeToString(h[:])
		fmt.Fprintf(os.Stderr, "%s done\n", e.ID)
	}
	b, _ := json.MarshalIndent(out, "", "  ")
	os.Stdout.Write(append(b, '\n'))
}
