(** The benchmark's clock, spans and nub-channel tap.

    Spans are recorded from the benchmark's own files around each call
    into a layer: name, start, end, parent and op id.  Each feeds the
    per-layer aggregates as it closes; the first {!max_kept} are kept in
    memory and written out at exit.  With tracing off, {!span} is a plain call and
    channels come from {!Host.open_channel}; the end-to-end numbers are
    always taken that way.

    The tap counts nub traffic from outside the program: it builds the
    debugger/nub endpoint pair exactly as {!Host.open_channel} does and
    hooks both ends' [on_send], counting frames, bytes and request
    opcodes before forwarding with {!Chan.deliver}. *)

module Host = Ldb_ldb.Host
module Chan = Ldb_nub.Chan
module Nub = Ldb_nub.Nub

let now_ns () : int = Int64.to_int (Monotonic_clock.now ())
let ms_of_ns (ns : int) : float = float_of_int ns /. 1e6

(* --- counters ------------------------------------------------------------- *)

(** Tap counter slots, in the order {!counter_names} reports them. *)
let c_fetch = 0
let c_store = 1
let c_continue = 2
let c_step = 3
let c_set_cond = 4
let c_fetch_trace = 5
let c_other = 6
let c_bytes = 7
let c_wait_ns = 8
let n_counters = 9

let counter_names =
  [| "nub.rpc.fetch"; "nub.rpc.store"; "nub.rpc.continue"; "nub.rpc.step";
     "nub.rpc.set_cond"; "nub.rpc.fetch_trace"; "nub.rpc.other"; "nub.bytes";
     "nub.wait_ns" |]

let counters = Array.make n_counters 0

(* --- spans ---------------------------------------------------------------- *)

let tracing = ref false

(** The op the next spans belong to (0 outside ops). *)
let current_op = ref 0

(** Per-layer self time (ns) over everything traced so far. *)
let self_ns : (string, int ref) Hashtbl.t = Hashtbl.create 16

(** For the span names given to {!time_calls} only (keeping every
    [nub.pump] would cost more memory than the rest of a run): the
    duration (ms) of each span and the fetch RPCs inside it. *)
let durations : (string, Stats.fvec) Hashtbl.t = Hashtbl.create 32
let fetches : (string, Stats.fvec) Hashtbl.t = Hashtbl.create 32

let time_calls (names : string list) =
  List.iter (fun n -> ignore (Stats.series durations n : Stats.fvec)) names

(** A span kept for the spans file: counters are deltas across it. *)
type span = {
  sp_name : string;
  sp_op : int;
  sp_parent : int;  (** index of the enclosing kept span, -1 at the root *)
  sp_start : int;
  sp_end : int;
  sp_counters : int array;
}

(** Spans kept in memory for the spans file; the aggregates above cover
    every span; only the file is bounded. *)
let max_kept = 20_000

let kept : span option array = Array.make max_kept None
let n_kept = ref 0

type open_span = {
  o_name : string;
  o_start : int;
  o_c0 : int array;
  o_kept : int;  (** slot in [kept], or -1 *)
  mutable o_child_ns : int;  (** time of the spans inside this one *)
}

let stack : open_span list ref = ref []

let layer_of (name : string) =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let close (o : open_span) =
  let t1 = now_ns () in
  let dur = t1 - o.o_start in
  stack := List.tl !stack;
  (match !stack with p :: _ -> p.o_child_ns <- p.o_child_ns + dur | [] -> ());
  let layer = layer_of o.o_name in
  (match Hashtbl.find_opt self_ns layer with
  | Some r -> r := !r + dur - o.o_child_ns
  | None -> Hashtbl.replace self_ns layer (ref (dur - o.o_child_ns)));
  (match Hashtbl.find_opt durations o.o_name with
  | Some v ->
      Stats.push v (ms_of_ns dur);
      Stats.push (Stats.series fetches o.o_name)
        (float_of_int (counters.(c_fetch) - o.o_c0.(c_fetch)))
  | None -> ());
  if o.o_kept >= 0 then
    kept.(o.o_kept) <-
      Some
        { sp_name = o.o_name; sp_op = !current_op;
          sp_parent = (match !stack with p :: _ -> p.o_kept | [] -> -1);
          sp_start = o.o_start; sp_end = t1;
          sp_counters = Array.mapi (fun k c -> c - o.o_c0.(k)) counters }

(** Run [f] inside a span called [name] ("layer.call"). *)
let span (name : string) (f : unit -> 'a) : 'a =
  if not !tracing then f ()
  else begin
    let slot = if !n_kept < max_kept then (incr n_kept; !n_kept - 1) else -1 in
    let o =
      { o_name = name; o_start = now_ns (); o_c0 = Array.copy counters; o_kept = slot;
        o_child_ns = 0 }
    in
    stack := o :: !stack;
    match f () with
    | v ->
        close o;
        v
    | exception e ->
        close o;
        raise e
  end

(** Self time (ms) of [layer]'s spans, summed. *)
let self_ms (layer : string) =
  match Hashtbl.find_opt self_ns layer with Some r -> ms_of_ns !r | None -> 0.0

let span_durations name = Stats.series durations name
let span_fetches name = Stats.series fetches name

(** The kept spans as tab-separated lines: index, name, op, parent, start
    and end (ns), then the counter deltas across the span. *)
let write_spans (path : string) : unit =
  let oc = open_out path in
  output_string oc
    ("# index\tname\top\tparent\tstart_ns\tend_ns\t"
    ^ String.concat "\t" (Array.to_list counter_names)
    ^ "\n");
  for i = 0 to !n_kept - 1 do
    match kept.(i) with
    | Some s ->
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d" i s.sp_name s.sp_op s.sp_parent
          s.sp_start s.sp_end;
        Array.iter (Printf.fprintf oc "\t%d") s.sp_counters;
        output_char oc '\n'
    | None -> ()
  done;
  close_out oc

(* --- the channel tap ---------------------------------------------------------- *)

(** Frame layout of {!Ldb_nub.Frame}: 2 magic bytes, seq, len, crc (u32
    each, little-endian), then the payload, whose first byte is the
    request opcode of {!Ldb_nub.Proto}. *)
let frame_header = 14

let u32_at (s : string) (pos : int) =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

let count_requests (s : string) : unit =
  let rec go pos =
    if pos + frame_header < String.length s then begin
      let len = u32_at s (pos + 6) in
      let slot =
        match s.[pos + frame_header] with
        | 'F' -> c_fetch
        | 'S' -> c_store
        | 'C' -> c_continue
        | 'T' -> c_step
        | 'B' -> c_set_cond
        | 'G' -> c_fetch_trace
        | _ -> c_other
      in
      counters.(slot) <- counters.(slot) + 1;
      go (pos + frame_header + len)
    end
  in
  go 0

(** Install counting hooks on a debugger/nub endpoint pair and pump the
    nub inside a [nub.pump] span. *)
let tap (nub : Nub.t) : Chan.endpoint =
  let dbg_end, nub_end = Chan.pair ~labels:("ldb", "nub") () in
  Nub.attach nub nub_end;
  Chan.set_pump dbg_end (fun () -> span "nub.pump" (fun () -> Nub.pump nub));
  let sent_at = ref 0 in
  Chan.set_on_send dbg_end
    (Some
       (fun s ->
         count_requests s;
         counters.(c_bytes) <- counters.(c_bytes) + String.length s;
         sent_at := now_ns ();
         Chan.deliver dbg_end s));
  Chan.set_on_send nub_end
    (Some
       (fun s ->
         counters.(c_bytes) <- counters.(c_bytes) + String.length s;
         counters.(c_wait_ns) <- counters.(c_wait_ns) + (now_ns () - !sent_at);
         Chan.deliver nub_end s));
  dbg_end

(** The debugger's channel to [p]: tapped when tracing, otherwise exactly
    {!Host.open_channel}. *)
let open_channel (p : Host.process) : Chan.endpoint =
  if !tracing then tap p.Host.hp_nub else Host.open_channel p
