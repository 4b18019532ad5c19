type t = {
  transport : string;
  wp_fault_guest_cpu : int;
  harvest_per_page : int;
  page_copy_per_byte : float;
  page_send_per_page : int;
  batch_kick : int;
  pause_vcpu : int;
  resume_vcpu : int;
  state_transfer : int;
}

let none =
  {
    transport = "none";
    wp_fault_guest_cpu = 0;
    harvest_per_page = 0;
    page_copy_per_byte = 0.0;
    page_send_per_page = 0;
    batch_kick = 0;
    pause_vcpu = 0;
    resume_vcpu = 0;
    state_transfer = 0;
  }

let blackout_page_cpu t ~page_bytes =
  t.harvest_per_page
  + Armvirt_arch.Cost_model.copy_cost ~per_byte:t.page_copy_per_byte
      ~bytes:page_bytes
  + t.page_send_per_page
