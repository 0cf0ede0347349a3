(* Deterministic fault injection around a Site: the harness the
   fault-matrix suite drives.  A wrapped site can be unavailable (every
   fetch fails until healed), slow (an attempt blows its timeout),
   transiently flaky (an attempt fails but a retry may succeed) or
   corrupting (individual records arrive damaged and must be quarantined).

   Every decision draws from a SplitMix stream owned by the wrapper, so a
   given seed replays the exact failure schedule — and [heal] restores the
   site, which is what lets the convergence oracle compare a degraded run
   against its fault-free baseline. *)

type failure =
  | Unavailable (* persistent outage until healed *)
  | Timed_out (* this attempt exceeded its deadline *)
  | Transient (* flaky attempt; retrying may succeed *)

let failure_to_string = function
  | Unavailable -> "unavailable"
  | Timed_out -> "timed out"
  | Transient -> "transient failure"

type config = {
  p_unavailable : float; (* site down for the whole run, decided at wrap *)
  p_timeout : float; (* per attempt *)
  p_flaky : float; (* per attempt *)
  p_corrupt : float; (* per record on a successful fetch *)
  latency : int; (* simulated ms per successful fetch *)
  timeout_cost : int; (* simulated ms burned by a timed-out attempt *)
}

let no_faults =
  { p_unavailable = 0.;
    p_timeout = 0.;
    p_flaky = 0.;
    p_corrupt = 0.;
    latency = 1;
    timeout_cost = 1_000;
  }

let default_config =
  { no_faults with p_unavailable = 0.1; p_timeout = 0.1; p_flaky = 0.2; p_corrupt = 0.05 }

type t = {
  mutable site : Site.t; (* mutable so a recovered site can be reseated *)
  prng : Splitmix.t;
  mutable config : config;
  mutable down : bool; (* the persistent-outage draw *)
}

let wrap ?(config = no_faults) ~seed site =
  let prng = Splitmix.create ~seed in
  let down = Splitmix.bool prng ~probability:config.p_unavailable in
  { site; prng; config; down }

let site t = t.site

(* Point the wrapper at a replacement — e.g. a site rebuilt from its WAL
   after a crash.  The PRNG keeps its position: a reseat does not disturb
   the fault schedule. *)
let reseat t site = t.site <- site

let config t = t.config

let is_down t = t.down

(* Clear every injected fault: the site is reachable and clean again.  The
   PRNG keeps its position so healing does not disturb other sites'
   schedules. *)
let heal t =
  t.config <- no_faults;
  t.down <- false

(* Force the persistent outage on — e.g. to script a breaker trajectory. *)
let take_down t = t.down <- true

let restore t = t.down <- false

(* Raw re-encoding of a fetched entry, as a corrupted record would appear
   in transit; the damaged field is replaced by garbage so the mapping
   rejects it downstream. *)
let garbled_raw prng (e : Hdb.Audit_schema.entry) =
  let fields = Hdb.Audit_schema.to_assoc e in
  let victim = Splitmix.int prng (List.length fields) in
  List.mapi (fun i (k, v) -> if i = victim then (k, "\xef\xbf\xbd!corrupt") else (k, v)) fields

type fetched = {
  delivered : Hdb.Audit_schema.entry list; (* clean records, store order *)
  corrupted : (int * (string * string) list * string) list;
      (* (seq, garbled raw, reason) for records damaged in transit *)
}

(* One fetch attempt at simulated time [clock], returning the records at
   seqs [from, length).  Success damages each record of the whole store
   independently with [p_corrupt], one draw per record; the site itself
   keeps the originals, so a later clean fetch recovers them.  At
   [p_corrupt <= 0] no draw can damage anything, so the draws are skipped
   in one step and only the suffix is read: the stream stays where the
   walk would have left it. *)
let fetch ?(from = 0) t ~clock =
  if t.down then Error Unavailable
  else if Splitmix.bool t.prng ~probability:t.config.p_timeout then begin
    clock := !clock + t.config.timeout_cost;
    Error Timed_out
  end
  else if Splitmix.bool t.prng ~probability:t.config.p_flaky then Error Transient
  else begin
    clock := !clock + t.config.latency;
    if t.config.p_corrupt <= 0. then begin
      Splitmix.skip t.prng (Site.length t.site);
      Ok { delivered = Site.entries_from t.site from; corrupted = [] }
    end
    else begin
      let _, delivered_rev, corrupted_rev =
        List.fold_left
          (fun (seq, delivered, corrupted) entry ->
            if Splitmix.bool t.prng ~probability:t.config.p_corrupt then
              let raw = garbled_raw t.prng entry in
              ( seq + 1,
                delivered,
                if seq >= from then (seq, raw, "corrupt in transit") :: corrupted
                else corrupted )
            else (seq + 1, (if seq >= from then entry :: delivered else delivered), corrupted))
          (0, [], []) (Site.entries t.site)
      in
      Ok { delivered = List.rev delivered_rev; corrupted = List.rev corrupted_rev }
    end
  end
