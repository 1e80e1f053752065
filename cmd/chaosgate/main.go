// Command chaosgate runs one row of the chaos package's gate table and
// renders its verdict: the JSON report always prints, a broken invariant
// exits non-zero, and a pass prints "<gate> ok: <headline>".
//
//	chaosgate [-n N] [-seed S] [-scheme S] [-lookups L] [-csv FILE] GATE
//
// GATE is a Makefile target name (`make <gate>` runs exactly this). -n,
// -seed, -scheme and -lookups override the row's values (the EXPERIMENTS.md
// artefacts need n=256, 1M lookups, one run per scheme, and seed 42), and
// -csv appends the report to an artefact file in the row's CSV layout,
// writing the header only into an empty file.
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"routetab/internal/serve/chaos"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "chaosgate:", err)
		os.Exit(1)
	}
}

// gates is the table `make <gate>` runs, one row per Makefile target.
var gates = chaos.Gates

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("chaosgate", flag.ContinueOnError)
	n := fs.Int("n", 0, "override the gate's graph size (0 keeps it)")
	seed := fs.Int64("seed", 0, "override the gate's seed (0 keeps it)")
	scheme := fs.String("scheme", "", "override the gate's scheme")
	lookups := fs.Uint64("lookups", 0, "override the gate's lookup target (0 keeps it)")
	csvPath := fs.String("csv", "", "append the report to this CSV artefact (gates with a CSV layout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var names []string
	var g *chaos.Gate
	for i := range gates {
		names = append(names, gates[i].Name)
		if fs.NArg() == 1 && gates[i].Name == fs.Arg(0) {
			g = &gates[i]
		}
	}
	switch {
	case fs.NArg() != 1:
		return fmt.Errorf("usage: chaosgate [-n N] [-seed S] [-scheme S] [-lookups L] [-csv FILE] GATE (%s)", strings.Join(names, "|"))
	case g == nil:
		return fmt.Errorf("unknown gate %q (%s)", fs.Arg(0), strings.Join(names, "|"))
	case *csvPath != "" && g.Artefact == "":
		return fmt.Errorf("gate %s has no CSV layout", g.Name)
	}
	sc := g.Scenario
	sc.N, sc.Seed, sc.Scheme, sc.Lookups = cmp.Or(*n, sc.N), cmp.Or(*seed, sc.Seed), cmp.Or(*scheme, sc.Scheme), cmp.Or(*lookups, sc.Lookups)

	var rep fmt.Stringer
	var report *chaos.Report
	var err error
	if g.Crash {
		var cr *chaos.CrashReport
		if cr, err = chaos.RunCrash(chaos.CrashConfig{N: sc.N, Seed: sc.Seed, Scheme: sc.Scheme}); cr != nil {
			rep = cr
		}
	} else if report, err = chaos.Run(sc); report != nil {
		rep = report
	}
	if rep == nil {
		return err
	}
	blob, merr := json.MarshalIndent(rep, "", "  ")
	if merr != nil {
		return merr
	}
	fmt.Fprintln(out, string(blob))
	if *csvPath != "" {
		if werr := appendCSV(*csvPath, report); werr != nil {
			return errors.Join(err, werr)
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s ok: %s\n", g.Name, rep)
	return nil
}

// appendCSV appends rep's CSV rows (header + body) to path, dropping the
// header row when the file already has content — so repeated runs
// accumulate one artefact.
func appendCSV(path string, rep *chaos.Report) error {
	var buf bytes.Buffer
	if err := chaos.WriteCSV(&buf, []*chaos.Report{rep}); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	body := buf.Bytes()
	if st, err := f.Stat(); err == nil && st.Size() > 0 {
		body = body[bytes.IndexByte(body, '\n')+1:]
	}
	_, err = f.Write(body)
	return errors.Join(err, f.Close())
}
