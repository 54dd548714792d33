// Command webfarm serves the synthetic web on a real TCP listener so
// the universe can be explored with curl or a browser:
//
//	webfarm -addr :8080 -scale 0.05
//	curl -H 'Host: <domain>' -H 'X-Vantage: Germany' http://localhost:8080/
//
// The same handler backs the in-process transport used by the crawls,
// so what you see over the wire is exactly what the measurements saw.
package main

import (
	"flag"
	"fmt"
	"log"

	"cookiewalk"
	"cookiewalk/internal/httpsrv"
)

func main() {
	var (
		addr  = flag.String("addr", ":8080", "listen address")
		seed  = flag.Uint64("seed", 42, "universe seed")
		scale = flag.Float64("scale", 0.05, "filler-web scale")
	)
	flag.Parse()

	study := cookiewalk.New(cookiewalk.Config{Seed: *seed, Scale: *scale})
	walls := study.CookiewallDomains()
	fmt.Printf("serving %d sites on %s\n", len(study.Targets()), *addr)
	fmt.Println("sample cookiewall sites:")
	for i, d := range walls {
		if i >= 5 {
			break
		}
		fmt.Printf("  curl -H 'Host: %s' -H 'X-Vantage: Germany' http://localhost%s/\n", d, *addr)
	}
	// Farm requests carry no large body, so the whole request read is
	// bounded too.
	log.Fatal(httpsrv.New(*addr, study.Handler()).ListenAndServe())
}
