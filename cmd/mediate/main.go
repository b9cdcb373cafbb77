// Command mediate builds a mediated schema with probabilistic mappings over
// a file of schemas — either per clustered domain (the default, the thesis'
// architecture) or over the whole file at once (-noclustering, the Section
// 6.3 pathology demonstration).
//
// Usage:
//
//	mediate -in schemas.txt [-threshold 0.1] [-tau 0.25] [-noclustering] [-mappings]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"schemaflow/internal/cli"
	"schemaflow/internal/mediate"
	"schemaflow/internal/schema"
	"schemaflow/payg"
)

func main() {
	in := flag.String("in", "", "schema file (.json or line format); required")
	threshold := flag.Float64("threshold", 0.1, "attribute frequency threshold (0 disables filtering)")
	tau := flag.Float64("tau", 0.25, "clustering threshold tau_c_sim")
	noClustering := flag.Bool("noclustering", false, "mediate the whole file as one domain")
	showMappings := flag.Bool("mappings", false, "print each schema's probabilistic mappings")
	flag.Parse()

	if err := run(os.Stdout, *in, *threshold, *tau, *noClustering, *showMappings); err != nil {
		fmt.Fprintln(os.Stderr, "mediate:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, in string, threshold, tau float64, noClustering, showMappings bool) error {
	set, err := cli.ReadSchemasFile(in)
	if err != nil {
		return err
	}

	opts := mediate.DefaultOptions()
	if threshold == 0 {
		opts.Negative = true
	} else {
		opts.FreqThreshold = threshold
	}

	if noClustering {
		med, err := mediate.Build(set, opts)
		if err != nil {
			return err
		}
		printMediated(w, "all schemas (no clustering)", med, showMappings)
		return nil
	}

	// Cluster only: each domain is mediated below under this command's own
	// options, from its members taken by index (names need not be unique).
	sys, err := payg.Build(set, payg.Options{TauCSim: tau, SkipMediation: true})
	if err != nil {
		return err
	}
	for r, d := range sys.Model().Domains {
		var members schema.Set
		for _, mem := range d.Members {
			members = append(members, set[mem.Schema])
		}
		med, err := mediate.Build(members, opts)
		if err != nil {
			return err
		}
		printMediated(w, fmt.Sprintf("domain %d", r), med, showMappings)
	}
	return nil
}

func printMediated(w io.Writer, title string, med *mediate.Mediated, showMappings bool) {
	fmt.Fprintf(w, "== %s ==\n%s", title, med.Describe())
	if !showMappings {
		fmt.Fprintln(w)
		return
	}
	for i, mappings := range med.Mappings {
		fmt.Fprintf(w, "  mappings of %s:\n", med.Schemas[i].Name)
		for _, mp := range mappings {
			var parts []string
			for k, to := range mp.AttrTo {
				if to < 0 {
					continue
				}
				parts = append(parts, fmt.Sprintf("%s→%s", med.Schemas[i].Attributes[k], med.Attrs[to].Name))
			}
			fmt.Fprintf(w, "    Pr=%.3f  %s\n", mp.Prob, strings.Join(parts, ", "))
		}
	}
	fmt.Fprintln(w)
}
