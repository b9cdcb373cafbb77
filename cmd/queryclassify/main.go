// Command queryclassify builds the full pipeline over a schema file and
// classifies keyword queries into domains: queries come from the command
// line (after the flags) or, if none are given, one per line on stdin.
//
// Usage:
//
//	queryclassify -in schemas.txt [-tau 0.25] [-top 3] "departure toronto"
//	echo "title author" | queryclassify -in schemas.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"schemaflow/internal/cli"
	"schemaflow/payg"
)

func main() {
	in := flag.String("in", "", "schema file (.json or line format); required")
	tau := flag.Float64("tau", 0.25, "clustering threshold tau_c_sim")
	top := flag.Int("top", 3, "how many domains to print per query (at least 1)")
	explain := flag.Bool("explain", false, "itemize the top domain's per-term score contributions")
	flag.Parse()

	if err := run(*in, *tau, *top, *explain, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "queryclassify:", err)
		os.Exit(1)
	}
}

func run(in string, tau float64, top int, explain bool, queries []string) error {
	if top < 1 {
		return fmt.Errorf("-top must be at least 1, got %d", top)
	}
	set, err := cli.ReadSchemasFile(in)
	if err != nil {
		return err
	}
	sys, err := payg.Build(set, payg.Options{TauCSim: tau, SkipMediation: true})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "built %d domains over %d schemas\n", sys.NumDomains(), len(set))

	domains := sys.Domains()
	classifyOne := func(q string) {
		scores := sys.ClassifyTop(strings.Fields(q), top)
		fmt.Printf("%q:\n", q)
		for rank, s := range scores {
			var names []string
			for _, mem := range domains[s.Domain].Schemas {
				names = append(names, mem.Name)
				if len(names) == 3 {
					names = append(names, "...")
					break
				}
			}
			fmt.Printf("  #%d domain %-4d posterior %.3f  {%s}\n",
				rank+1, s.Domain, s.Posterior, strings.Join(names, ", "))
		}
		if explain && len(scores) > 0 {
			ex, err := sys.Explain(q, scores[0].Domain)
			if err == nil {
				fmt.Print(ex.String())
			}
		}
	}

	if len(queries) > 0 {
		for _, q := range queries {
			classifyOne(q)
		}
		return nil
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" {
			classifyOne(line)
		}
	}
	return sc.Err()
}
