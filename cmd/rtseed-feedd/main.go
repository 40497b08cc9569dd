// Command rtseed-feedd serves an exchange-rate stream over TCP as
// newline-delimited JSON — the "stock company" endpoint of the paper's
// motivating scenario (§II-A). Pair it with `rtseed-trade -feed ADDR`.
//
// Usage:
//
//	rtseed-feedd [-listen 127.0.0.1:7070] [-ticks N] [-seed S] [-vol F]
//	             [-replay FILE.rtk] [-symbol N]
//
// By default ticks come from the in-process synthetic generator. -replay
// serves the market ticks recorded in a .rtk workload trace
// (rtseed-workload gen) instead; -symbol restricts the stream to one
// symbol's quotes (default: all, looping when exhausted) and needs -replay.
//
// Flag errors exit 2: -ticks below 1, a negative or non-finite -vol, and
// -symbol without -replay.
package main

import (
	"flag"
	"fmt"
	"math"
	"net"
	"os"

	"rtseed/internal/trading"
	"rtseed/internal/workload"
)

// options is the parsed command line.
type options struct {
	listen string
	ticks  int
	seed   uint64
	vol    float64
	replay string
	symbol int
}

// parseFlags registers the command's flags on fs, parses args, and
// validates the result. The flag set is injected so tests can parse without
// touching the process-global flag.CommandLine.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.StringVar(&o.listen, "listen", "127.0.0.1:7070", "address to listen on")
	fs.IntVar(&o.ticks, "ticks", 100000, "ticks to serve per client")
	fs.Uint64Var(&o.seed, "seed", 0xfeed, "generator seed")
	fs.Float64Var(&o.vol, "vol", 0.002, "per-tick volatility")
	fs.StringVar(&o.replay, "replay", "", "serve the ticks recorded in this .rtk workload trace instead of generating")
	fs.IntVar(&o.symbol, "symbol", -1, "with -replay, serve only this symbol's ticks (-1: all)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.ticks < 1 {
		return nil, fmt.Errorf("-ticks %d: want at least 1 tick per client", o.ticks)
	}
	if o.vol < 0 || math.IsNaN(o.vol) || math.IsInf(o.vol, 0) {
		return nil, fmt.Errorf("-vol %v: want a finite, non-negative volatility", o.vol)
	}
	if o.symbol != -1 && o.replay == "" {
		return nil, fmt.Errorf("-symbol %d: only -replay filters by symbol", o.symbol)
	}
	return o, nil
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtseed-feedd:", err)
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "rtseed-feedd:", err)
		os.Exit(1)
	}
}

func run(o *options) error {
	var src trading.Source
	if o.replay != "" {
		feed, err := replaySource(o.replay, o.symbol)
		if err != nil {
			return err
		}
		src = feed
	} else {
		feed, err := trading.NewFeed(trading.FeedConfig{Seed: o.seed, Volatility: o.vol})
		if err != nil {
			return err
		}
		src = feed
	}
	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	fmt.Printf("rtseed-feedd: serving %d ticks/client on %s\n", o.ticks, ln.Addr())
	srv := trading.NewFeedServer(src)
	return srv.Serve(ln, o.ticks)
}

// replaySource loads a .rtk workload trace as a looping replay feed,
// optionally restricted to one symbol (see trading.NewTraceReplay).
func replaySource(path string, symbol int) (*trading.ReplayFeed, error) {
	tr, err := workload.ReadFile(path)
	if err != nil {
		return nil, err
	}
	feed, err := trading.NewTraceReplay(tr, symbol)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return feed, nil
}
