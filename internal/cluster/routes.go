package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"radloc/internal/zone"
)

// Route names the nodes serving one zone: the primary accepts writes,
// the standby (optional) replicates and serves reads. Values are base
// URLs ("http://host:port").
type Route struct {
	// Primary is the write owner's base URL.
	Primary string `json:"primary"`
	// Standby is the replica's base URL; empty means unreplicated.
	Standby string `json:"standby,omitempty"`
	// Epoch is the fencing epoch this assertion was made at. When two
	// nodes disagree about a zone's primary, the higher epoch wins —
	// it reflects the more recent promotion. Zero (static seed tables)
	// loses to any learned assertion.
	Epoch uint64 `json:"epoch,omitempty"`
}

// Routes is the zone→node routing table: seeded from a static file,
// then kept current by exchanging per-zone {primary, epoch}
// assertions between nodes (LearnRoutes). Zones absent from the table
// are owned by whichever node they first appear on (standalone
// behavior), so a single-node deployment needs no table at all.
type Routes struct {
	// Zones maps zone name to its route.
	Zones map[string]Route `json:"zones"`
}

// LoadRoutes reads and validates a routes file. Zone names follow the
// wire grammar; every route must name a primary.
func LoadRoutes(path string) (Routes, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Routes{}, err
	}
	return ParseRoutes(raw)
}

// ParseRoutes validates a JSON routing table.
func ParseRoutes(raw []byte) (Routes, error) {
	var r Routes
	if err := json.Unmarshal(raw, &r); err != nil {
		return Routes{}, fmt.Errorf("cluster: bad routes: %w", err)
	}
	for name, rt := range r.Zones {
		if err := zone.ValidateName(name); err != nil {
			return Routes{}, fmt.Errorf("cluster: routes: %w", err)
		}
		if rt.Primary == "" {
			return Routes{}, fmt.Errorf("cluster: routes: zone %q has no primary", name)
		}
	}
	return r, nil
}

// ZoneNames returns the routed zone names, sorted.
func (r Routes) ZoneNames() []string {
	out := make([]string, 0, len(r.Zones))
	for name := range r.Zones {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Clone deep-copies the table so callers can mutate or persist it
// without holding the node's lock.
func (r Routes) Clone() Routes {
	cp := Routes{Zones: make(map[string]Route, len(r.Zones))}
	for k, v := range r.Zones {
		cp.Zones[k] = v
	}
	return cp
}

// RouteStore persists the learned routing table across restarts, so a
// rebooted node remembers who owns each zone without waiting for the
// next probe round.
type RouteStore interface {
	// Load returns the stored table; an empty table if none was saved.
	Load() (Routes, error)
	// Save durably records the table.
	Save(Routes) error
}
