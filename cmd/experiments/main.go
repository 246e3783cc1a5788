// Command experiments regenerates the paper's evaluation figures (§7).
//
// Example:
//
//	experiments -fig all -quick        # fast reduced sweep
//	experiments -fig 10               # full Figure 10 sweep (slow)
//	experiments -fig 8 -seeds 3
//
// Long sweeps can run as resilient campaigns:
//
//	experiments -fig all -journal sweep.jsonl             # journal completions
//	experiments -fig all -journal sweep.jsonl -resume     # skip finished jobs
//	experiments -fig all -journal s.jsonl -job-timeout 2m -retries 2
//
// With -journal, every completed sweep job is appended (fsynced) to the
// JSONL journal; a killed campaign rerun with -resume replays journaled
// results instead of re-executing them. -job-timeout arms a per-job
// watchdog that cancels a wedged simulation (tearing down its goroutines,
// blocked queue operations included) and retries it with capped
// exponential backoff; after -retries extra attempts the job is classified
// as hung and the campaign moves on. SIGINT drains in-flight jobs,
// flushes the journal and exits; resume with the same journal to finish.
// Use -sequential for bit-reproducible runs (required if a resumed
// campaign must aggregate identically to an uninterrupted one).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"commguard/internal/campaign"
	"commguard/internal/experiments"
	"commguard/internal/obs"
)

func main() {
	var (
		fig       = flag.String("fig", "all", "figure to regenerate: "+strings.Join(experiments.FigureNames(), "|")+"|all")
		quickF    = flag.Bool("quick", false, "reduced sweep (smaller workloads, fewer seeds)")
		seeds     = flag.Int("seeds", 0, "override seeds per point (paper: 5)")
		csvDir    = flag.String("csv", "", "also write the regenerated figures' CSVs to this directory")
		mdPath    = flag.String("md", "", "also write a Markdown report of the regenerated figures to this path")
		verbose   = flag.Bool("v", false, "print per-figure start/finish lines with elapsed time and job counts to stderr")
		trace     = flag.String("trace", "", "record an event trace of Figure 7's representative run and write <base>.trace.json/.jsonl/.snapshot.json")
		listen    = flag.String("listen", "", "serve live sweep progress counters over HTTP at this address (OpenMetrics at GET /metrics), e.g. :6060")
		flightDir = flag.String("flight-dir", "", "arm a flight recorder on detection-latency sweep jobs: trace rings run continuously and are dumped into this directory when a job trips a PPU watchdog refusal or is classified as hung")

		journal    = flag.String("journal", "", "append completed sweep jobs to this JSONL journal (campaign mode: watchdog, retries, graceful SIGINT)")
		resume     = flag.Bool("resume", false, "with -journal: skip jobs already journaled, replaying their stored results")
		jobTimeout = flag.Duration("job-timeout", 0, "with -journal: cancel a sweep job still running after this long and retry it (0 disables the watchdog)")
		retries    = flag.Int("retries", 2, "with -journal: extra attempts for a timed-out job before classifying it as hung")
		sequential = flag.Bool("sequential", false, "bit-reproducible single-goroutine simulations (resumed campaigns aggregate identically)")
	)
	flag.Parse()

	opts := experiments.DefaultOptions()
	if *quickF {
		opts = experiments.QuickOptions()
	}
	if *seeds > 0 {
		opts.Seeds = *seeds
	}
	opts.Out = os.Stdout
	opts.Verbose = *verbose
	opts.TracePath = *trace
	opts.Sequential = *sequential
	if *flightDir != "" {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		opts.FlightDir = *flightDir
	}
	if *listen != "" {
		opts.Progress = new(obs.Progress)
		obs.ListenAndServe(*listen, opts.Progress, func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format, a...)
		})
		fmt.Fprintf(os.Stderr, "progress counters at http://%s/metrics\n", *listen)
	}

	var (
		jnl    *campaign.Journal
		totals *campaign.Stats
	)
	if *journal != "" {
		var err error
		jnl, err = campaign.Open(*journal, *resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer jnl.Close()
		if *resume && jnl.Len() > 0 {
			fmt.Fprintf(os.Stderr, "resuming: %d jobs already journaled in %s\n", jnl.Len(), *journal)
		}

		interrupt := make(chan struct{})
		sig := make(chan os.Signal, 2)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			fmt.Fprintln(os.Stderr, "\ninterrupt: draining in-flight jobs and flushing the journal (^C again to abort hard)")
			close(interrupt)
			<-sig // second signal: give up on draining
			os.Exit(130)
		}()

		workers := opts.Parallel
		if workers < 1 {
			workers = runtime.GOMAXPROCS(0)
		}
		totals = &campaign.Stats{}
		opts.Campaign = &campaign.Runner{
			Parallel:   workers,
			JobTimeout: *jobTimeout,
			Retries:    *retries,
			Journal:    jnl,
			Progress:   opts.Progress,
			Interrupt:  interrupt,
			Stats:      totals,
			OnHung: func(he *campaign.HungError) {
				fmt.Fprintf(os.Stderr, "campaign: %v\n", he)
				if *flightDir != "" {
					fmt.Fprintf(os.Stderr, "campaign: flight-recorder dumps for hung jobs land in %s\n", *flightDir)
				}
			},
		}
	} else if *resume || *jobTimeout != 0 {
		fmt.Fprintln(os.Stderr, "experiments: -resume and -job-timeout require -journal")
		os.Exit(2)
	}

	err := run(*fig, opts, *csvDir, *mdPath)
	if totals != nil {
		s := totals.Snapshot()
		fmt.Fprintf(os.Stderr, "campaign: %d completed, %d skipped (journal), %d retried, %d hung\n",
			s.Completed, s.Skipped, s.Retried, s.Hung)
	}
	if err != nil {
		if errors.Is(err, campaign.ErrInterrupted) {
			if jnl != nil {
				jnl.Close() // flush before reporting
			}
			fmt.Fprintf(os.Stderr, "experiments: interrupted; rerun with -journal %s -resume to finish\n", *journal)
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(fig string, opts experiments.Options, csvDir, mdPath string) error {
	all, err := experiments.Run(fig, opts)
	if err != nil {
		return err
	}
	if csvDir != "" {
		if err := experiments.WriteCSV(csvDir, all); err != nil {
			return err
		}
		fmt.Printf("\nCSV data written to %s\n", csvDir)
	}
	if mdPath != "" {
		f, err := os.Create(mdPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := experiments.WriteMarkdown(f, all); err != nil {
			return err
		}
		fmt.Printf("Markdown report written to %s\n", mdPath)
	}
	return nil
}
