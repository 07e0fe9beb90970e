// Command charmvet runs the determinism & PUP-completeness static-analysis
// suite over the module:
//
//	go run ./cmd/charmvet ./...
//
// It prints one line per violation (file:line:col: [analyzer] message) and
// exits 1 when any are found, 2 on a usage or load error. The same suite
// runs in CI through TestCharmvetClean, so the CLI is for local iteration:
// run it after touching event-producing code or a Pup method.
//
// Flags:
//
//	-analyzers a,b    run only the named analyzers
//	-why              print each finding's root→sink call chain, one hop
//	                  per line, instead of the inline (via ...) suffix
//	-json             machine-readable output: a JSON array of findings
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"charmgo/internal/analysis"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	suite := analysis.DefaultSuite()
	fs := flag.NewFlagSet("charmvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	why := fs.Bool("why", false, "print full call chains, one hop per line")
	names := fs.String("analyzers", "", "comma-separated analyzer names to run (default: all)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: charmvet [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range suite.Analyzers {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *names != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range suite.Analyzers {
			byName[a.Name] = a
		}
		var picked []*analysis.Analyzer
		for _, name := range strings.Split(*names, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "charmvet: unknown analyzer %q\n", name)
				return 2
			}
			picked = append(picked, a)
		}
		suite.Analyzers = picked
	}

	pkgs, err := analysis.Load(".", fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	findings := suite.Run(pkgs)

	switch {
	case *jsonOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []analysis.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "charmvet:", err)
			return 2
		}
	case *why:
		for _, f := range findings {
			chain := f.Chain
			f.Chain = nil // shown hop by hop below, not inline
			fmt.Fprintln(stdout, f)
			for i, hop := range chain {
				fmt.Fprintf(stdout, "    %s%s\n", strings.Repeat("  ", i), hop)
			}
		}
	default:
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "charmvet: %d violation(s)\n", len(findings))
		return 1
	}
	return 0
}
