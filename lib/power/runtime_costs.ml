let watchdog_period = 8_000
let buffer_entries = 2_048
let checkpoint_cycles = 40
let restore_cycles = 40
let nvp_wakeup_cycles = 8
