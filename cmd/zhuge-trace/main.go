// Command zhuge-trace generates and inspects bandwidth traces.
//
// Usage:
//
//	zhuge-trace -gen w1 -dur 10m -seed 3 -o w1.csv
//	zhuge-trace -stats w1.csv
//	zhuge-trace -list
//
// Generated traces are CSV ("seconds,bps") and load back with -stats or
// into the simulator via internal/trace.Load (zhuge-sim -trace file.csv).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/zhuge-project/zhuge/internal/trace"
)

func main() {
	var (
		gen   = flag.String("gen", "", "trace to generate (see -list)")
		dur   = flag.Duration("dur", 10*time.Minute, "trace duration")
		seed  = flag.Int64("seed", 1, "random seed")
		out   = flag.String("o", "", "output file (default stdout)")
		stats = flag.String("stats", "", "print ABW statistics for a CSV trace")
		list  = flag.Bool("list", false, "list generator names")
	)
	flag.Parse()

	switch {
	case *list:
		for _, name := range trace.Names() {
			fmt.Println(name)
		}
	case *stats != "":
		f, err := os.Open(*stats)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tr, err := trace.Load(*stats, f)
		if err != nil {
			fatal(err)
		}
		printStats(tr)
	case *gen != "":
		tr, err := trace.Named(*gen, *dur, rand.New(rand.NewSource(*seed)))
		if err != nil {
			fatal(fmt.Errorf("%v; use -list", err))
		}
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := tr.Save(w); err != nil {
			fatal(err)
		}
		if *out != "" {
			fmt.Printf("wrote %s: %d samples, mean %.1f Mbps\n", *out, len(tr.Samples), tr.Mean()/1e6)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func printStats(tr *trace.Trace) {
	ratios := trace.ReductionRatios(tr, 200*time.Millisecond)
	fmt.Printf("trace:    %s\n", tr.Name)
	fmt.Printf("duration: %v\n", tr.Duration().Round(time.Second))
	fmt.Printf("samples:  %d\n", len(tr.Samples))
	fmt.Printf("mean:     %.2f Mbps\n", tr.Mean()/1e6)
	fmt.Printf("min:      %.2f Mbps\n", tr.Min()/1e6)
	fmt.Printf("ABW reduction over 200ms windows:\n")
	for _, pt := range trace.ReductionCDF(ratios) {
		fmt.Printf("  P(reduction <= %4.0fx) = %.4f\n", pt.K, pt.CDF)
	}
	fmt.Printf("  P(reduction > 10x)   = %.4f\n", trace.FractionAbove(ratios, 10))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "zhuge-trace:", err)
	os.Exit(1)
}
