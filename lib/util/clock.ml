external now_ns : unit -> int = "iddq_clock_now_ns" [@@noalloc]

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9
