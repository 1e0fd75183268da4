(** Op accounting for one benchmark run: latency samples, failures, the
    counting window of a traced run, and named samples. *)

include Stats

(* --- cumulative counters a workload exposes -------------------------------- *)

(** Monotonic totals read through public accessors; a traced run reports
    their change across its counting window. *)
type snap = {
  insns : int;  (** simulated instructions retired ({!Ldb_machine.Cpu}) *)
  rpcs : int;  (** {!Ldb_ldb.Transport.stats} *)
  retries : int;
  timeouts : int;
  scan_hits : int;  (** {!Ldb_pscript.Interp.scan_stats} *)
  scan_misses : int;
  forced : int;  (** {!Ldb_ldb.Symtab.forced_units}, summed over images *)
}

let zero = { insns = 0; rpcs = 0; retries = 0; timeouts = 0; scan_hits = 0; scan_misses = 0; forced = 0 }

let add a b =
  { insns = a.insns + b.insns; rpcs = a.rpcs + b.rpcs; retries = a.retries + b.retries;
    timeouts = a.timeouts + b.timeouts; scan_hits = a.scan_hits + b.scan_hits;
    scan_misses = a.scan_misses + b.scan_misses; forced = a.forced + b.forced }

module Ldb = Ldb_ldb.Ldb
module Transport = Ldb_ldb.Transport

(** What a process, target and debugger contribute to a {!snap}. *)
let of_proc (p : Ldb_ldb.Host.process) =
  { zero with insns = p.Ldb_ldb.Host.hp_proc.Ldb_machine.Proc.cpu.Ldb_machine.Cpu.icount }

let of_target (tg : Ldb.target) =
  match tg.Ldb.tg_conn with
  | Ldb.Live tr ->
      let st = Transport.stats tr in
      { zero with rpcs = st.Transport.st_rpcs; retries = st.Transport.st_retries;
        timeouts = st.Transport.st_timeouts }
  | Ldb.Postmortem _ -> zero

let of_debugger (d : Ldb.t) =
  let hits, misses = Ldb_pscript.Interp.scan_stats d.Ldb.interp in
  { zero with scan_hits = hits; scan_misses = misses }

let of_image (im : Ldb.image) =
  { zero with forced = List.length (Ldb_ldb.Symtab.forced_units im.Ldb.im_symtab) }

(* --- the run ------------------------------------------------------------------ *)

(** Counter readings at an op boundary. *)
type reading = { rd_snap : snap; rd_counters : int array; rd_minor : float; rd_major : int }

(** Per-layer counts are read over the first [window_ops] ops of the
    traced phase: a fixed, seed-determined set of ops, so that they repeat
    exactly from run to run whatever the machine's speed. *)
let window_ops = 100

type t = {
  lat : fvec;  (** op latency, ms; a failed op is +infinity *)
  first_stop : fvec;  (** ms from session start to the first stop reported *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** the first few, newest first *)
  samples : (string, fvec) Hashtbl.t;  (** named samples, ms unless named otherwise *)
  snap : unit -> snap;
  mutable window : (reading * reading option) option;
  heap : fvec;  (** major-heap words at the end of each op *)
}

(** A workload, set up: its cumulative counters, a closed loop that runs
    sessions of ops until the deadline (ns), and the per-layer metrics
    only it can read, for the phase just run. *)
type bench = {
  snap : unit -> snap;
  round : t -> deadline:int -> unit;
  layers : t -> (string * float) list;
}

let read (snap : unit -> snap) : reading =
  let g = Gc.quick_stat () in
  { rd_snap = snap (); rd_counters = Array.copy Meter.counters; rd_minor = g.Gc.minor_words;
    rd_major = g.Gc.major_collections }

let create ?(snap = fun () -> zero) () =
  { lat = fvec (); first_stop = fvec (); attempted = 0; failed = 0; failures = [];
    samples = Hashtbl.create 32; snap; window = None; heap = fvec () }

(** Start the counting window (traced runs). *)
let open_window (r : t) = r.window <- Some (read r.snap, None)

let sample (r : t) name (x : float) = push (series r.samples name) x

let in_window (r : t) =
  match r.window with Some (_, None) -> true | _ -> false

(** A sample of a count that must repeat exactly from run to run: kept
    only inside the counting window. *)
let window_sample (r : t) name (x : float) = if in_window r then sample r name x

(** A wrong answer from the debugger. *)
exception Mismatch of string

let expect (ok : bool) fmt =
  Printf.ksprintf (fun m -> if not ok then raise (Mismatch m)) fmt

let expect_eq what ~(want : string) (got : string) =
  expect (String.equal want got) "%s: expected %S, got %S" what want got

let describe_exn = function
  | Mismatch m -> "wrong answer: " ^ m
  | e -> Ldb.exn_text e

let counted (r : t) =
  r.attempted <- r.attempted + 1;
  push r.heap (float_of_int (Gc.quick_stat ()).Gc.heap_words);
  match r.window with
  | Some (start, None) when r.attempted = window_ops -> r.window <- Some (start, Some (read r.snap))
  | _ -> ()

let fail (r : t) (e : exn) =
  r.failed <- r.failed + 1;
  push r.lat infinity;
  if List.length r.failures < 5 then r.failures <- describe_exn e :: r.failures;
  counted r

(** An op that began at [t0] (ns) completed correctly. *)
let completed (r : t) ~(t0 : int) =
  push r.lat (Meter.ms_of_ns (Meter.now_ns () - t0));
  counted r

(** Raised by {!op} after it has counted a failure: the caller abandons
    the session the op ran in. *)
exception Abandon

(** Time one op.  Any exception — a wrong value, a typed refusal turned
    into an exception, a transport error — makes it a failed op. *)
let op (r : t) (f : unit -> 'a) : 'a =
  incr Meter.current_op;
  let t0 = Meter.now_ns () in
  match Meter.span "bench.op" f with
  | v ->
      completed r ~t0;
      v
  | exception e ->
      fail r e;
      raise Abandon

(** Run a session: a failure outside an op (launch, attach, run to exit)
    counts as one failed op; either way the session is abandoned. *)
let session (r : t) (f : unit -> unit) : unit =
  match f () with
  | () -> ()
  | exception Abandon -> ()
  | exception e -> fail r e
