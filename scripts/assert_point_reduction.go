// Command assert_point_reduction fails when a BENCH_<pr>.json perf record
// does not carry an AdaptiveVsFullGrid_point_reduction of at least 2 — the
// PR gate's teeth behind the adaptive-campaign headline ("measures 2-3x
// fewer points"). scripts/check.sh runs it on the freshly written record.
//
// Usage: go run ./scripts/assert_point_reduction.go BENCH_14.json
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: assert_point_reduction <BENCH_pr.json>")
		os.Exit(2)
	}
	data, err := os.ReadFile(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "assert_point_reduction:", err)
		os.Exit(1)
	}
	var rec struct {
		Derived []struct {
			Name    string  `json:"name"`
			Value   float64 `json:"value"`
			Details string  `json:"details"`
		} `json:"derived"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		fmt.Fprintf(os.Stderr, "assert_point_reduction: %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
	for _, d := range rec.Derived {
		if d.Name != "AdaptiveVsFullGrid_point_reduction" {
			continue
		}
		if d.Value < 2 {
			fmt.Fprintf(os.Stderr, "assert_point_reduction: %s: point reduction %.2f < 2 (%s)\n",
				os.Args[1], d.Value, d.Details)
			os.Exit(1)
		}
		fmt.Printf("adaptive point reduction: %.2fx (%s)\n", d.Value, d.Details)
		return
	}
	fmt.Fprintf(os.Stderr, "assert_point_reduction: %s has no AdaptiveVsFullGrid_point_reduction record\n", os.Args[1])
	os.Exit(1)
}
