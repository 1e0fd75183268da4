(** The debugger benchmark.

    ldbbench --workload NAME --seed N --seconds S --trace 0|1

    Sets the workload up several times (reporting the median as
    [setup_s]), then measures closed-loop ops for [S] seconds.  With
    [--trace 0] it prints the end-to-end metrics.  With [--trace 1] it
    runs half the time traced and half untraced, and prints the
    per-layer metrics, each layer's self time per op and the tracing
    overhead; the spans go to [--spans-dir].  The last line of standard
    output is one JSON object. *)

let workloads =
  [ ("cold_start", W_cold.setup); ("inspect", W_inspect.setup); ("serve", W_serve.setup);
    ("timetravel", W_travel.setup) ]

let setups = 5

type args = { workload : string; seed : int; seconds : int; trace : bool; spans_dir : string }

let parse_args () : args =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let spans_dir = ref ".ldbbench" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--spans-dir", Arg.Set_string spans_dir, "DIR where a traced run writes its spans") ]
  in
  let usage = "ldbbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem_assoc !workload workloads) then begin
    prerr_endline
      ("ldbbench: --workload must be one of " ^ String.concat ", " (List.map fst workloads));
    exit 2
  end;
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1;
    spans_dir = !spans_dir }

(* --- output ------------------------------------------------------------------ *)

let json_num (x : float) =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "1e9" (* a failed op misses every latency limit *)

let print_result (runs : Run.t list) (metrics : (string * float * string) list) =
  let attempted = List.fold_left (fun n r -> n + r.Run.attempted) 0 runs in
  let failed = List.fold_left (fun n r -> n + r.Run.failed) 0 runs in
  List.iter (fun (name, v, unit) -> Printf.printf "%-30s %14.6g %s\n" name v unit) metrics;
  Printf.printf "attempted %d, failed %d\n" attempted failed;
  List.iter
    (fun r -> List.iter (Printf.printf "failure: %s\n") (List.rev r.Run.failures))
    runs;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0 && attempted > 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_num v) unit)
          metrics))

(* --- phases ------------------------------------------------------------------ *)

(** One timed phase of [seconds]; returns the run and its length in s. *)
let phase (b : Run.bench) ~(seconds : float) ~(traced : bool) : Run.t * float =
  let r = Run.create ~snap:b.Run.snap () in
  Gc.full_major ();
  Meter.tracing := traced;
  if traced then Run.open_window r;
  let t0 = Meter.now_ns () in
  b.Run.round r ~deadline:(t0 + int_of_float (seconds *. 1e9));
  let elapsed = Meter.ms_of_ns (Meter.now_ns () - t0) /. 1000.0 in
  Meter.tracing := false;
  (r, elapsed)

let mib_of_words w = w *. float_of_int (Sys.word_size / 8) /. float_of_int (1 lsl 20)

let end_to_end (r : Run.t) ~(elapsed : float) ~(setup : Run.fvec) =
  let ok = r.Run.attempted - r.Run.failed in
  [ ("setup_s", Run.median setup, "s");
    ("op_p50_ms", Run.median r.Run.lat, "ms");
    ("op_p99_ms", Run.quantile r.Run.lat 0.99, "ms");
    ("ops_per_s", float_of_int ok /. elapsed, "1/s");
    ("first_stop_p50_ms", Run.median r.Run.first_stop, "ms");
    ("heap_p50_mb", mib_of_words (Run.median r.Run.heap), "MiB");
    ("ok_frac", float_of_int ok /. float_of_int (max 1 r.Run.attempted), "ratio") ]

(* --- per-layer metrics of a traced phase ---------------------------------------- *)

(** Layers whose self time per op is reported: every span prefix. *)
let self_layers =
  [ "bench"; "machine"; "nub"; "pscript"; "symtab"; "frame"; "ldb"; "exprserver"; "server";
    "evloop"; "swire"; "replay" ]

(** Calls whose median duration is reported: metric, span name. *)
let call_timings =
  [ ("machine.launch_ms", "machine.launch"); ("pscript.load_image_ms", "pscript.load_image");
    ("symtab.break_ms", "symtab.break"); ("frame.backtrace_ms", "frame.backtrace");
    ("ldb.connect_ms", "ldb.connect"); ("ldb.continue_ms", "ldb.continue");
    ("ldb.print_ms", "ldb.print"); ("ldb.assign_ms", "ldb.assign");
    ("exprserver.compile_cond_ms", "exprserver.compile_cond");
    ("server.bind_ms", "server.bind"); ("replay.fetch_trace_ms", "replay.fetch_trace");
    ("replay.open_ms", "replay.open") ]

(** Each layer's self time per op: its spans' time minus the time of the
    spans inside them. *)
let self_times ~(ops : int) =
  List.map
    (fun l -> (Printf.sprintf "self.%s_ms" l, Meter.self_ms l /. float_of_int ops, "ms"))
    self_layers

(** Per-op counts over the counting window. *)
let window_counts (r : Run.t) =
  let a, z =
    match r.Run.window with
    | Some (a, Some z) -> (a, z)
    | _ ->
        (* fewer ops than the window: count over the whole phase *)
        let a = match r.Run.window with Some (a, None) -> a | _ -> Run.read r.Run.snap in
        (a, Run.read r.Run.snap)
  in
  let n = float_of_int (min Run.window_ops (max 1 r.Run.attempted)) in
  let per x = float_of_int x /. n in
  let c k = per (z.Run.rd_counters.(k) - a.Run.rd_counters.(k)) in
  let sa = a.Run.rd_snap and sz = z.Run.rd_snap in
  let hits = sz.Run.scan_hits - sa.Run.scan_hits
  and misses = sz.Run.scan_misses - sa.Run.scan_misses in
  [ ("machine.insns", per (sz.Run.insns - sa.Run.insns), "count");
    ("nub.rpc.fetch", c Meter.c_fetch, "count");
    ("nub.rpc.store", c Meter.c_store, "count");
    ("nub.rpc.continue", c Meter.c_continue, "count");
    ("nub.rpc.step", c Meter.c_step, "count");
    ("nub.rpc.set_cond", c Meter.c_set_cond, "count");
    ("nub.rpc.fetch_trace", c Meter.c_fetch_trace, "count");
    ("nub.rpc.other", c Meter.c_other, "count");
    ("nub.bytes", c Meter.c_bytes, "bytes");
    ("nub.wait_ms", c Meter.c_wait_ns /. 1e6, "ms");
    ("transport.rpcs", per (sz.Run.rpcs - sa.Run.rpcs), "count");
    ("transport.retries", per (sz.Run.retries - sa.Run.retries), "count");
    ("transport.timeouts", per (sz.Run.timeouts - sa.Run.timeouts), "count");
    ("symtab.units_forced", per (sz.Run.forced - sa.Run.forced), "count");
    ("pscript.scan_hit_ratio", float_of_int hits /. float_of_int (max 1 (hits + misses)), "ratio");
    ("pscript.scan_lookups", per (hits + misses), "count");
    ("gc.minor_words", (z.Run.rd_minor -. a.Run.rd_minor) /. n, "words");
    ("gc.major_collections", per (z.Run.rd_major - a.Run.rd_major), "count") ]

(** Per-layer metrics only [serve] produces (0 elsewhere). *)
let server_layers =
  [ ("server.cache_hit_ratio", "ratio"); ("server.cache_lookups", "count");
    ("server.refused", "count"); ("server.failed", "count"); ("evloop.tick_ms", "ms");
    ("evloop.tick_p99_ms", "ms"); ("evloop.ticks_per_cmd", "count"); ("evloop.queued", "count");
    ("evloop.bytes_in", "bytes"); ("evloop.bytes_out", "bytes");
    ("evloop.protocol_errors", "count") ]

(** Everything but the tracing overhead; call right after the traced
    phase, while the workload's counters still describe it. *)
let per_layer (r : Run.t) ~(layers : (string * float) list) ~(build : Run.fvec) =
  let ops = max 1 r.Run.attempted in
  let counts = window_counts r in
  let sample name =
    match Hashtbl.find_opt r.Run.samples name with Some v -> Run.median v | None -> 0.0
  in
  let insns_per_s =
    match Hashtbl.find_opt r.Run.samples "machine.insns_per_s" with
    | Some v -> Run.median v
    | None -> (
        (* instructions retired per second the nub spent pumped *)
        let pump_s = Meter.self_ms "nub" /. 1000.0 in
        match r.Run.window with
        | Some (a, _) when pump_s > 0.0 ->
            float_of_int ((r.Run.snap ()).Run.insns - a.Run.rd_snap.Run.insns) /. pump_s
        | _ -> 0.0)
  in
  counts
  @ List.map
      (fun (metric, name) -> (metric, Run.median (Meter.span_durations name), "ms"))
      call_timings
  @ [ ("machine.insns_per_s", insns_per_s, "1/s");
      ("link.build_ms", Run.median build, "ms");
      ("frame.depth", sample "frame.depth", "count");
      ("ldb.print_fetches", Run.median (Meter.span_fetches "ldb.print"), "count");
      ("ldb.step_ms", sample "ldb.step_ms", "ms");
      ( "swire.client_codec_us",
        Meter.self_ms "swire" *. 1000.0 /. float_of_int ops,
        "us" ) ]
  @ List.map
      (fun (name, unit) -> (name, Option.value ~default:0.0 (List.assoc_opt name layers), unit))
      server_layers
  @ [ ("replay.record_ms", sample "replay.record_ms", "ms");
      ("replay.checkpoints", sample "replay.checkpoints", "count");
      ("replay.trace_bytes", sample "replay.trace_bytes", "bytes");
      ("replay.move_ms", sample "replay.move_ms", "ms");
      ("replay.seek_insns", sample "replay.seek_insns", "count") ]
  @ self_times ~ops

let () =
  let a = parse_args () in
  let setup = List.assoc a.workload workloads in
  let setup_s = Run.fvec () in
  let warm = Run.create () in
  let bench = ref None in
  for _ = 1 to setups do
    bench := None (* let the previous set-up be collected first *);
    let t0 = Meter.now_ns () in
    bench := Some (setup ~seed:a.seed warm);
    Run.push setup_s (Meter.ms_of_ns (Meter.now_ns () - t0) /. 1000.0)
  done;
  let b = Option.get !bench in
  let build = Run.series warm.Run.samples "link.build_ms" in
  let seconds = float_of_int a.seconds in
  if not a.trace then begin
    let r, elapsed = phase b ~seconds ~traced:false in
    print_result [ warm; r ] (end_to_end r ~elapsed ~setup:setup_s)
  end
  else begin
    Meter.time_calls (List.map snd call_timings);
    let traced, _ = phase b ~seconds:(seconds /. 2.0) ~traced:true in
    let metrics = per_layer traced ~layers:(b.Run.layers traced) ~build in
    let untraced, _ = phase b ~seconds:(seconds /. 2.0) ~traced:false in
    let traced_p50 = Run.median traced.Run.lat in
    let metrics =
      metrics
      @ [ ("trace.op_p50_ms", traced_p50, "ms");
          ("trace.overhead_ms", traced_p50 -. Run.median untraced.Run.lat, "ms") ]
    in
    (try
       if not (Sys.file_exists a.spans_dir) then Sys.mkdir a.spans_dir 0o755;
       Meter.write_spans
         (Filename.concat a.spans_dir (Printf.sprintf "%s-seed%d.tsv" a.workload a.seed))
     with Sys_error m -> Printf.printf "spans not written: %s\n" m);
    print_result [ warm; traced; untraced ] metrics
  end
