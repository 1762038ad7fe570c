package main

// Decode-side copies of the daemon's wire shapes. The canonical
// encoders live unexported in internal/node; these tests exercise the
// daemon across a process (or run()) boundary, so they re-declare
// just the fields they assert on — a field the daemon stops emitting
// fails these tests by zero-value, which is the point.

import (
	"radloc/internal/fusion"
	"radloc/internal/httpingest"
)

// measurementJSON is the ingest wire format.
type measurementJSON = httpingest.Measurement

// snapshotJSON mirrors the daemon's snapshot document.
type snapshotJSON struct {
	Ingested    uint64                `json:"ingested"`
	Rejected    uint64                `json:"rejected"`
	Refreshes   uint64                `json:"refreshes"`
	Quarantined int                   `json:"quarantined"`
	Malformed   uint64                `json:"malformed,omitempty"`
	ZoneRefused uint64                `json:"zoneRefused,omitempty"`
	Journaled   uint64                `json:"journaled,omitempty"`
	Delivery    *fusion.DeliveryStats `json:"delivery,omitempty"`
	Estimates   []estimateJSON        `json:"estimates"`
	Tracks      []trackJSON           `json:"tracks,omitempty"`
}

type estimateJSON struct {
	X           float64 `json:"x"`
	Y           float64 `json:"y"`
	StrengthUCi float64 `json:"strengthUCi"`
	Mass        float64 `json:"mass"`
}

type trackJSON struct {
	ID          int     `json:"id"`
	X           float64 `json:"x"`
	Y           float64 `json:"y"`
	StrengthUCi float64 `json:"strengthUCi"`
	Hits        int     `json:"hits"`
}
