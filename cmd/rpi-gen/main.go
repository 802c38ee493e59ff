// Command rpi-gen generates a synthetic IXP world and dumps its
// observable datasets (merged registry, colocation DB, ground-truth
// summary) as JSON, for inspection or for feeding external tooling.
//
// Usage:
//
//	rpi-gen [-seed N] [-scale N] [-ases N] [-ixps N] [-o world.json]
//
// When -o names a .rpw file, rpi-gen instead builds the complete input
// bundle (world, registry, colo DB, ping campaign, traceroute corpus)
// and writes it in the binary columnar interchange format of
// internal/worldfile — the "generate once, serve many" path: the file
// is what rpi-serve -world and the scaling benchmarks load, skipping
// world generation entirely.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"rpeer/internal/netsim"
	"rpeer/internal/registry"
	"rpeer/internal/worldfile"
	"rpeer/pkg/rpi"
)

type dump struct {
	Seed       int64          `json:"seed"`
	Facilities []facilityJSON `json:"facilities"`
	IXPs       []ixpJSON      `json:"ixps"`
	Members    []memberJSON   `json:"members"`
	Sources    []sourceJSON   `json:"registry_sources"`
}

type facilityJSON struct {
	ID      int     `json:"id"`
	Name    string  `json:"name"`
	City    string  `json:"city"`
	Country string  `json:"country"`
	Lat     float64 `json:"lat"`
	Lon     float64 `json:"lon"`
}

type ixpJSON struct {
	Name        string `json:"name"`
	PeeringLAN  string `json:"peering_lan"`
	Facilities  int    `json:"facilities"`
	Members     int    `json:"members"`
	WideArea    bool   `json:"wide_area"`
	Resellers   bool   `json:"allows_resellers"`
	MinPortMbps int    `json:"min_port_mbps"`
}

type memberJSON struct {
	IXP      string `json:"ixp"`
	ASN      uint32 `json:"asn"`
	Iface    string `json:"iface"`
	PortMbps int    `json:"port_mbps"`
	// Kind is the hidden ground truth; included because rpi-gen dumps
	// the oracle view (the inference tools never read this).
	Kind string `json:"kind"`
}

type sourceJSON struct {
	Source     string `json:"source"`
	Prefixes   int    `json:"prefixes"`
	Interfaces int    `json:"interfaces"`
	Conflicts  int    `json:"conflicts"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("rpi-gen: ")
	seed := flag.Int64("seed", 1, "world generation seed")
	scale := flag.Int("scale", 1, "world scale factor (1 = paper-sized default)")
	ases := flag.Int("ases", 0, "override number of ASes (0 = default)")
	ixps := flag.Int("ixps", 0, "override number of IXPs (0 = default)")
	out := flag.String("o", "", "output file (default stdout; a .rpw suffix writes the binary world bundle instead)")
	flag.Parse()

	cfg := netsim.DefaultConfig()
	if *scale > 1 {
		cfg = netsim.ScaledConfig(*scale)
	}
	cfg.Seed = *seed
	if *ases > 0 {
		cfg.NASes = *ases
	}
	if *ixps > 0 {
		cfg.NIXPs = *ixps
	}

	if strings.HasSuffix(*out, ".rpw") {
		writeWorldFile(cfg, *seed, *out)
		return
	}

	w, err := netsim.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ds := registry.Build(w, registry.DefaultNoise(), *seed+1)

	d := dump{Seed: *seed}
	for _, f := range w.Facilities {
		d.Facilities = append(d.Facilities, facilityJSON{
			ID: int(f.ID), Name: f.Name, City: f.City, Country: f.Country,
			Lat: f.Loc.Lat, Lon: f.Loc.Lon,
		})
	}
	for _, ix := range w.IXPs {
		d.IXPs = append(d.IXPs, ixpJSON{
			Name: ix.Name, PeeringLAN: ix.PeeringLAN.String(),
			Facilities: len(ix.Facilities), Members: len(w.MembersOf(ix.ID)),
			WideArea: ix.WideArea, Resellers: ix.AllowsResellers,
			MinPortMbps: ix.MinPortMbps,
		})
	}
	for _, m := range w.Members {
		d.Members = append(d.Members, memberJSON{
			IXP: w.IXP(m.IXP).Name, ASN: uint32(m.ASN), Iface: m.Iface.String(),
			PortMbps: m.PortMbps, Kind: m.Kind.String(),
		})
	}
	for _, st := range ds.Stats {
		d.Sources = append(d.Sources, sourceJSON{
			Source: st.Source.String(), Prefixes: st.Prefixes,
			Interfaces: st.Interfaces, Conflicts: st.ConflictInterfaces,
		})
	}

	enc := json.NewEncoder(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		enc = json.NewEncoder(f)
	}
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "rpi-gen: %d facilities, %d IXPs, %d memberships\n",
		len(d.Facilities), len(d.IXPs), len(d.Members))
}

// writeWorldFile is the "generate once" leg: build the complete input
// bundle over cfg and publish it atomically as a binary .rpw world.
func writeWorldFile(cfg netsim.Config, seed int64, path string) {
	start := time.Now()
	in, err := rpi.InputsFromConfig(cfg, seed)
	if err != nil {
		log.Fatal(err)
	}
	genDone := time.Now()
	if err := worldfile.WriteFile(path, in); err != nil {
		log.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr,
		"rpi-gen: world bundle %s: %d memberships, %d paths, %.1f MB (generate %s, write %s)\n",
		path, len(in.World.Members), len(in.Paths), float64(st.Size())/(1<<20),
		genDone.Sub(start).Round(time.Millisecond), time.Since(genDone).Round(time.Millisecond))
}
