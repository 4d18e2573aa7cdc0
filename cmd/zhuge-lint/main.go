// Command zhuge-lint runs the project's two static analyzers, detclock and
// detrand — the compile-time enforcement that the simulator takes time only
// from its virtual clock and randomness only from labeled seeds. See
// internal/analysis and LINTING.md.
//
// Usage:
//
//	go run ./cmd/zhuge-lint [-sarif file] [packages]
//
// With no packages it lints ./... . Exit status: 0 clean, 1 findings,
// 2 usage or load error. There is no suppression comment.
//
// -sarif FILE additionally writes a SARIF 2.1.0 log for CI annotation
// (written even when there are findings, so the upload step always has a
// file).
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/zhuge-project/zhuge/internal/analysis"
)

func main() {
	sarifPath := flag.String("sarif", "", "also write findings as SARIF 2.1.0 to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: zhuge-lint [-sarif file] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.Analyzers {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "zhuge-lint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "zhuge-lint: %v\n", err)
		os.Exit(2)
	}

	var all []analysis.Diagnostic
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg, analysis.Analyzers...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zhuge-lint: %v\n", err)
			os.Exit(2)
		}
		all = append(all, diags...)
	}

	if *sarifPath != "" {
		f, err := os.Create(*sarifPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zhuge-lint: %v\n", err)
			os.Exit(2)
		}
		werr := analysis.WriteSARIF(f, cwd, all)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "zhuge-lint: writing SARIF: %v\n", werr)
			os.Exit(2)
		}
	}

	for _, d := range all {
		fmt.Println(d.String())
	}
	if len(all) > 0 {
		fmt.Fprintf(os.Stderr, "zhuge-lint: %d finding(s)\n", len(all))
		os.Exit(1)
	}
}
