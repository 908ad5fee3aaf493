type gilbert_elliott = { p_enter : float; p_exit : float; loss_good : float; loss_burst : float }

type link = {
  burst_loss : gilbert_elliott option;
  duplicate_prob : float;
  reorder_prob : float;
  reorder_skew : int;
}

let default_link = { burst_loss = None; duplicate_prob = 0.0; reorder_prob = 0.0; reorder_skew = 0 }

type event =
  | Partition of { links : (int * int) list; at : int; heal : int option }
  | Crash of { proc : int; at : int }
  | Restart of { proc : int; at : int }

type plan = {
  default_link : link;
  link_faults_until : int option;
  events : event list;
}

let none = { default_link; link_faults_until = None; events = [] }

let split_halves ~n_procs =
  let half = n_procs / 2 in
  let acc = ref [] in
  for a = 0 to half - 1 do
    for b = half to n_procs - 1 do
      acc := (a, b) :: !acc
    done
  done;
  List.rev !acc

type profile = Loss_burst | Duplicate | Reorder | Partition_heal | Crash_restart

let profiles =
  [
    ("loss-burst", Loss_burst);
    ("duplicate", Duplicate);
    ("reorder", Reorder);
    ("partition-heal", Partition_heal);
    ("crash-restart", Crash_restart);
  ]

let profile_of_string s = List.assoc_opt (String.lowercase_ascii s) profiles

let profile_name p = fst (List.find (fun (_, q) -> q = p) profiles)

let plan_of_profile ?(start = 4_000) ?(stop = 18_000) ~n_procs profile =
  match profile with
  | Loss_burst ->
      {
        none with
        default_link =
          {
            default_link with
            burst_loss =
              Some { p_enter = 0.08; p_exit = 0.30; loss_good = 0.02; loss_burst = 0.75 };
          };
        link_faults_until = Some stop;
      }
  | Duplicate ->
      { none with default_link = { default_link with duplicate_prob = 0.30 }; link_faults_until = Some stop }
  | Reorder ->
      (* Skew must stay well under scion_grace (see the interface);
         200 is an order of magnitude below even Config.quick's. *)
      {
        none with
        default_link = { default_link with reorder_prob = 0.50; reorder_skew = 200 };
        link_faults_until = Some stop;
      }
  | Partition_heal ->
      {
        none with
        events = [ Partition { links = split_halves ~n_procs; at = start; heal = Some stop } ];
      }
  | Crash_restart ->
      let proc = if n_procs > 1 then 1 else 0 in
      { none with events = [ Crash { proc; at = start }; Restart { proc; at = stop } ] }
