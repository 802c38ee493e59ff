package netsim

import (
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
)

// worldJSON is the JSON dump of a World: the generated entities
// verbatim, in deterministic order. Save writes it as a structural dump
// for inspection and comparison; nothing reads it back (the loadable
// form is the binary world file of internal/worldfile).
type worldJSON struct {
	Version    int              `json:"version"`
	Cfg        Config           `json:"config"`
	Cities     []City           `json:"cities"`
	Facilities []*Facility      `json:"facilities"`
	IXPs       []*IXP           `json:"ixps"`
	ASes       []*AS            `json:"ases"`
	Routers    []*Router        `json:"routers"`
	Members    []*Member        `json:"members"`
	Private    []PrivateLink    `json:"private_links"`
	Resellers  []ASN            `json:"resellers"`
	Prefixes   []asPrefixesJSON `json:"as_prefixes"`
}

type asPrefixesJSON struct {
	ASN      ASN      `json:"asn"`
	Prefixes []string `json:"prefixes"`
}

const worldFormatVersion = 1

// Save writes the world's JSON dump.
func (w *World) Save(out io.Writer) error {
	doc := worldJSON{
		Version:    worldFormatVersion,
		Cfg:        w.Cfg,
		Cities:     w.Cities,
		Facilities: w.Facilities,
		IXPs:       w.IXPs,
		Members:    w.Members,
		Private:    w.Private,
		Resellers:  w.Resellers,
	}
	for _, asn := range w.ASNs {
		doc.ASes = append(doc.ASes, w.ASes[asn])
		if ps := w.asPrefixes[asn]; len(ps) > 0 {
			e := asPrefixesJSON{ASN: asn}
			for _, p := range ps {
				e.Prefixes = append(e.Prefixes, p.String())
			}
			doc.Prefixes = append(doc.Prefixes, e)
		}
	}
	doc.Routers = w.Routers
	enc := json.NewEncoder(out)
	return enc.Encode(doc)
}

// WorldParts is the entity-level content of a World: everything a
// serialised form must carry, none of the derived state (lookup
// indices, the latency oracle) a loader rebuilds. The binary columnar
// decoder of internal/worldfile assembles worlds through it.
type WorldParts struct {
	Cfg        Config
	Cities     []City
	Facilities []*Facility
	IXPs       []*IXP
	ASes       []*AS
	Routers    []*Router
	Members    []*Member
	Private    []PrivateLink
	Resellers  []ASN
	Prefixes   map[ASN][]netip.Prefix
}

// Parts decomposes the world into its serialisable entity content.
// Slices and maps are shared with the world, not copied; encoders must
// treat them as read-only. ASes and Routers come out in sorted ID
// order, so an encoder iterating them is deterministic.
func (w *World) Parts() WorldParts {
	p := WorldParts{
		Cfg:        w.Cfg,
		Cities:     w.Cities,
		Facilities: w.Facilities,
		IXPs:       w.IXPs,
		Members:    w.Members,
		Private:    w.Private,
		Resellers:  w.Resellers,
		Routers:    w.Routers,
		Prefixes:   w.asPrefixes,
	}
	for _, asn := range w.ASNs {
		p.ASes = append(p.ASes, w.ASes[asn])
	}
	return p
}

// FromParts assembles a live World from deserialised entity content:
// lookup indices and the latency oracle are rebuilt, and entity IDs,
// member references and interface ownership are sanity-checked. The
// result is indistinguishable from the World the parts were captured
// from.
func FromParts(parts WorldParts) (*World, error) {
	w := &World{
		Cfg:        parts.Cfg,
		Cities:     parts.Cities,
		Facilities: parts.Facilities,
		IXPs:       parts.IXPs,
		Members:    parts.Members,
		Private:    parts.Private,
		Resellers:  parts.Resellers,
		ASes:       make(map[ASN]*AS, len(parts.ASes)),
		Routers:    make([]*Router, len(parts.Routers)),
		asPrefixes: parts.Prefixes,
	}
	if w.asPrefixes == nil {
		w.asPrefixes = make(map[ASN][]netip.Prefix)
	}
	for _, as := range parts.ASes {
		w.ASes[as.ASN] = as
	}
	// Router and facility IDs index dense tables (generation numbers
	// them 0..n-1), so each must be distinct and below its count.
	for _, r := range parts.Routers {
		if r.ID < 0 || int(r.ID) >= len(w.Routers) || w.Routers[r.ID] != nil {
			return nil, fmt.Errorf("netsim: router id %d is not a distinct id below %d", r.ID, len(w.Routers))
		}
		w.Routers[r.ID] = r
	}
	w.facByID = make([]*Facility, len(parts.Facilities))
	for _, f := range parts.Facilities {
		if f.ID < 0 || int(f.ID) >= len(w.facByID) || w.facByID[f.ID] != nil {
			return nil, fmt.Errorf("netsim: facility id %d is not a distinct id below %d", f.ID, len(w.facByID))
		}
		w.facByID[f.ID] = f
	}
	// World.IXP indexes the IXP slice by ID.
	for i, ix := range parts.IXPs {
		if ix.ID != IXPID(i) {
			return nil, fmt.Errorf("netsim: IXP %d carries id %d", i, ix.ID)
		}
	}
	// Sanity: every member must reference known entities.
	for _, m := range w.Members {
		if w.IXP(m.IXP) == nil {
			return nil, fmt.Errorf("netsim: member %s references unknown IXP %d", m.ASN, m.IXP)
		}
		if w.Router(m.Router) == nil {
			return nil, fmt.Errorf("netsim: member %s references unknown router %d", m.ASN, m.Router)
		}
	}
	w.lat = newLatency(w, parts.Cfg.Seed)
	if err := w.buildIndices(); err != nil {
		return nil, err
	}
	// The reseller list names each AS flagged as a reseller, once.
	listed := make(map[ASN]bool, len(w.Resellers))
	for _, asn := range w.Resellers {
		if as := w.ASes[asn]; as == nil || !as.IsReseller || listed[asn] {
			return nil, fmt.Errorf("netsim: reseller list entry %s is not a distinct reseller AS", asn)
		}
		listed[asn] = true
	}
	for _, as := range parts.ASes {
		if as.IsReseller && !listed[as.ASN] {
			return nil, fmt.Errorf("netsim: reseller %s is missing from the reseller list", as.ASN)
		}
	}
	return w, nil
}
