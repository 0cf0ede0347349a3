(* The whole-store fetch walk, one corruption draw per record. *)

module Fault = Audit_mgmt.Fault
module Site = Audit_mgmt.Site

type t = {
  site : Site.t;
  prng : Splitmix.t;
  mutable config : Fault.config;
  mutable down : bool;
}

let wrap ?(config = Fault.no_faults) ~seed site =
  let prng = Splitmix.create ~seed in
  let down = Splitmix.bool prng ~probability:config.Fault.p_unavailable in
  { site; prng; config; down }

let heal t =
  t.config <- Fault.no_faults;
  t.down <- false

let take_down t = t.down <- true
let restore t = t.down <- false

let garbled_raw prng (e : Hdb.Audit_schema.entry) =
  let fields = Hdb.Audit_schema.to_assoc e in
  let victim = Splitmix.int prng (List.length fields) in
  List.mapi (fun i (k, v) -> if i = victim then (k, "\xef\xbf\xbd!corrupt") else (k, v)) fields

let fetch ?(from = 0) t ~clock =
  if t.down then Error Fault.Unavailable
  else if Splitmix.bool t.prng ~probability:t.config.Fault.p_timeout then begin
    clock := !clock + t.config.Fault.timeout_cost;
    Error Fault.Timed_out
  end
  else if Splitmix.bool t.prng ~probability:t.config.Fault.p_flaky then Error Fault.Transient
  else begin
    clock := !clock + t.config.Fault.latency;
    let _, delivered_rev, corrupted_rev =
      List.fold_left
        (fun (seq, delivered, corrupted) entry ->
          if Splitmix.bool t.prng ~probability:t.config.Fault.p_corrupt then
            ( seq + 1,
              delivered,
              (seq, garbled_raw t.prng entry, "corrupt in transit") :: corrupted )
          else (seq + 1, (seq, entry) :: delivered, corrupted))
        (0, [], []) (Site.entries t.site)
    in
    let from_on l = List.filter (fun (seq, _) -> seq >= from) (List.rev l) in
    Ok
      { Fault.delivered = List.map snd (from_on delivered_rev);
        corrupted =
          List.filter (fun (seq, _, _) -> seq >= from) (List.rev corrupted_rev);
      }
  end
