// Command bannerstat analyzes a single site of the synthetic web: what
// banner it shows, where it is embedded, which subscription words and
// prices the classifier found, and whether an ad blocker suppresses it.
//
//	bannerstat <domain>
//	bannerstat -vp "US East" -blocker <domain>
//	bannerstat -walls            # list ground-truth cookiewall domains
package main

import (
	"flag"
	"fmt"
	"os"

	"cookiewalk"
)

func main() {
	var (
		seed       = flag.Uint64("seed", 42, "universe seed")
		scale      = flag.Float64("scale", 0.05, "filler-web scale")
		vp         = flag.String("vp", "Germany", "vantage point name")
		blocker    = flag.Bool("blocker", false, "enable the uBlock-style blocker")
		walls      = flag.Bool("walls", false, "list cookiewall domains and exit")
		screenshot = flag.Bool("screenshot", false, "render the banner as an ASCII box (Appendix B style)")
		progress   = flag.Bool("progress", false, "stream campaign progress counters to stderr")
		workers    = flag.Int("workers", 0, "worker pool size of each campaign run, shared by all its shards (0 = GOMAXPROCS)")
		shards     = flag.Int("shards", 0, "campaign shard count (0 = derived from target count)")
	)
	flag.Parse()

	cfg := cookiewalk.Config{Seed: *seed, Scale: *scale, Workers: *workers, Shards: *shards}
	if *progress {
		cfg.Progress = func(p cookiewalk.Progress) {
			fmt.Fprintf(os.Stderr, "%s: shard %d/%d, %d/%d visits, %d errors\n",
				p.Label, p.Shard, p.Shards, p.Done, p.Total, p.Errors)
		}
	}
	study := cookiewalk.New(cfg)
	if *walls {
		for _, d := range study.CookiewallDomains() {
			fmt.Println(d)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: bannerstat [-vp VP] [-blocker] [-screenshot] <domain>")
		os.Exit(2)
	}
	domain := flag.Arg(0)

	if *screenshot {
		box, err := study.Screenshot(*vp, domain)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Print(box)
		return
	}

	analyze := study.Analyze
	if *blocker {
		analyze = study.AnalyzeWithBlocker
	}
	rep, err := analyze(*vp, domain)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Printf("domain:      %s (from %s%s)\n", rep.Domain, rep.VP, blockerSuffix(*blocker))
	fmt.Printf("banner:      %s\n", rep.BannerKind)
	fmt.Printf("embedding:   %s %s\n", rep.Embedding, rep.ShadowMode)
	fmt.Printf("buttons:     accept=%v reject=%v subscribe=%v\n",
		rep.HasAccept, rep.HasReject, rep.HasSub)
	fmt.Printf("corpus hits: %v\n", rep.MatchedWords)
	if rep.PriceEUR > 0 {
		fmt.Printf("price:       %.2f EUR/month\n", rep.PriceEUR)
	}
	fmt.Printf("language:    %s\n", rep.Language)
	fmt.Printf("category:    %s\n", rep.Category)
	if rep.AdblockPlea {
		fmt.Println("quirk:       site asks to disable the ad blocker")
	}
	if rep.ScrollLocked {
		fmt.Println("quirk:       page locked scrolling under the blocker")
	}
}

func blockerSuffix(on bool) string {
	if on {
		return ", blocker on"
	}
	return ""
}
