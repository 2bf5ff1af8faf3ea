// Package directives is the fixture for //lint:allow's own rules: a
// directive must name a known analyzer, carry a reason, and actually
// suppress something.
package directives

import "time"

// stale carries a directive that suppresses nothing: time.Unix is
// deterministic, so no analyzer fires here.
func stale() time.Time {
	//lint:allow determinism nothing here for determinism to flag
	return time.Unix(0, 0)
}

func unknownAnalyzer() {
	//lint:allow speling reason text present
}

func missingReason() {
	//lint:allow determinism
}
