// Package pattern is a fixture mirror of the real
// sqpeer/internal/pattern routing bodies: the analyzer matches any
// package whose import path ends in "pattern".
package pattern

// PathPattern mirrors pattern.PathPattern; it rides inside the bodies
// and inside advertisements, and is not a body itself.
type PathPattern struct {
	ID       string
	Property string
}

// QueryPattern mirrors the query.route request body.
type QueryPattern struct {
	SchemaName string
	Patterns   []PathPattern
}

// Annotated mirrors the query.route reply body.
type Annotated struct {
	Query *QueryPattern
	Peers map[string][]string
}

// ActiveSchema mirrors an advertisement's active-schema.
type ActiveSchema struct {
	Patterns []PathPattern
}
