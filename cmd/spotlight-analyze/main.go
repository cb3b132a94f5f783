// Command spotlight-analyze regenerates the paper's Chapter 5 figures
// from a previously dumped store data dir (the store/ directory written
// by `spotlight-study -out`), without re-running the simulation — the
// collect-once / analyze-many workflow of a real measurement study.
//
// Usage:
//
//	spotlight-analyze -in results/store
//	spotlight-analyze -in results/store -fig 5.4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"spotlight/internal/analysis"
	"spotlight/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spotlight-analyze:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("spotlight-analyze", flag.ContinueOnError)
	var (
		in  = fs.String("in", "store", "store data dir to analyze")
		fig = fs.String("fig", "", "single figure to print (e.g. 5.4); empty prints all")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// store.Open creates missing directories, so a mistyped path would
	// analyze an empty store; demand an existing data dir instead.
	if _, err := os.Stat(filepath.Join(*in, "meta.json")); err != nil {
		return fmt.Errorf("%s is not a store data dir: %w", *in, err)
	}
	db, err := store.Open(*in, store.PersistOptions{})
	if err != nil {
		return err
	}
	err = analyze(out, db, *in, *fig)
	if cerr := db.Persister().Close(); err == nil {
		err = cerr
	}
	return err
}

func analyze(out io.Writer, db *store.Store, in, fig string) error {
	fmt.Fprintf(out, "loaded %s: %d probes, %d spikes, %d outages\n",
		in, db.ProbeCount(), len(db.Spikes()), len(db.Outages()))

	figures := []struct {
		id    string
		title string
		write func(io.Writer) error
	}{
		{"5.4", "P(on-demand unavailable) vs spike size", analysis.Fig54GlobalUnavailability(db, nil).WriteText},
		{"5.5", "rejected probes per region", analysis.Fig55RegionRejectShare(db).WriteText},
		{"5.6", "per-region unavailability (900s)", analysis.Fig56RegionUnavailability(db, 0).WriteText},
		{"5.7", "spike vs related-market rejections", analysis.Fig57TriggerBreakdown(db).WriteText},
		{"5.8", "cross-zone coupling", analysis.Fig58CrossAZ(db, nil).WriteText},
		{"5.9", "outage duration CDF", analysis.Fig59OutageDurationCDF(db).WriteText},
		{"5.10", "spot capacity-not-available vs price", analysis.Fig510SpotUnavailability(db).WriteText},
		{"5.11", "spot insufficiency distribution", analysis.Fig511SpotInsufficiencyDist(db).WriteText},
		{"5.12", "related-market insufficiency pairs", analysis.Fig512CrossKind(db, nil).WriteText},
	}
	matched := false
	for _, fg := range figures {
		if fig != "" && fg.id != fig {
			continue
		}
		matched = true
		fmt.Fprintf(out, "\n=== Fig %s — %s ===\n", fg.id, fg.title)
		if err := fg.write(out); err != nil {
			return err
		}
	}
	if !matched {
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}
