package telemetry

import "time"

// The two constants a black-box test needs to size its input.
const (
	FlightCap       = flightCap
	PublishInterval = time.Duration(publishInterval)
)
