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
// symbol's quotes (default: all, looping when exhausted).
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"rtseed/internal/trading"
	"rtseed/internal/workload"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7070", "address to listen on")
	ticks := flag.Int("ticks", 100000, "ticks to serve per client")
	seed := flag.Uint64("seed", 0xfeed, "generator seed")
	vol := flag.Float64("vol", 0.002, "per-tick volatility")
	replay := flag.String("replay", "", "serve the ticks recorded in this .rtk workload trace instead of generating")
	symbol := flag.Int("symbol", -1, "with -replay, serve only this symbol's ticks (-1: all)")
	flag.Parse()
	if err := run(*listen, *ticks, *seed, *vol, *replay, *symbol); err != nil {
		fmt.Fprintln(os.Stderr, "rtseed-feedd:", err)
		os.Exit(1)
	}
}

func run(listen string, ticks int, seed uint64, vol float64, replay string, symbol int) error {
	var src trading.Source
	if replay != "" {
		feed, err := replaySource(replay, symbol)
		if err != nil {
			return err
		}
		src = feed
	} else {
		feed, err := trading.NewFeed(trading.FeedConfig{Seed: seed, Volatility: vol})
		if err != nil {
			return err
		}
		src = feed
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	fmt.Printf("rtseed-feedd: serving %d ticks/client on %s\n", ticks, ln.Addr())
	srv := trading.NewFeedServer(src)
	return srv.Serve(ln, ticks)
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
