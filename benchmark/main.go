// Command benchmark is the repository's yardstick: seven named workloads
// from the event core to the live relay, two end-to-end metrics measured on
// every one of them, and a traced ladder of per-layer metrics taken from
// outside the packages. BENCHMARK.json at the root of the repository is its
// contract and README.md beside this file its catalogue.
//
//	bash benchmark/run.sh --workload call-rtp --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --workload all --report set.json      # every workload, both kinds of run
//	bash benchmark/run.sh -compare a.json b.json
//
// The last line of standard output is one JSON object with the run's
// correctness, operation counts and the metrics BENCHMARK.json lists; the
// lines before it are the full report for people.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var cfg config
	var trace int
	var reportPath string
	var compare, list bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long to keep making timed repeats (at least three are made)")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, spans off; 1: traced run, per-layer metrics, Chrome trace written to <build dir>/trace-<workload>.json")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny sizes, one repeat: checks the plumbing, measures nothing")
	flag.StringVar(&reportPath, "report", "", "merge this run's full report into the JSON file at this path")
	flag.BoolVar(&list, "list", false, "print the workload names, one a line")
	flag.BoolVar(&compare, "compare", false, "compare two report files: -compare a.json b.json")
	flag.Parse()

	if list {
		for _, w := range workloadNames() {
			fmt.Println(w)
		}
		return
	}
	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two report files")
			os.Exit(2)
		}
		breaches, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1), "BENCHMARK.json")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if breaches > 0 {
			os.Exit(1)
		}
		return
	}

	if flag.NArg() != 0 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.traced = trace == 1
	cfg.nproc = runtime.NumCPU()
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	rep.print(os.Stdout)
	if reportPath != "" {
		if err := rep.mergeInto(reportPath); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: report:", err)
			os.Exit(2)
		}
	}
	line, err := json.Marshal(rep.driverSummary())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}
