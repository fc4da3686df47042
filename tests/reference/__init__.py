"""Reference oracles: readable, slow implementations the tests pin the
production fast paths against. Production code never imports these."""
