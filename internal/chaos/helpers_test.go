package chaos

// Ok reports whether every invariant held.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }
