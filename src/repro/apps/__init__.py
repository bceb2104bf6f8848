"""Example applications over the ENCOMPASS reproduction.

* :mod:`repro.apps.banking` — debit/credit (TP1-style) with the
  consistency assertions used by the atomicity experiments;
* :mod:`repro.apps.order_entry` — multi-file order entry exercising
  alternate-key indices and compound keys;
* :mod:`repro.apps.manufacturing` — the paper's Figure 4: a four-node
  replicated data base with record-master update, suspense files and
  suspense monitors.
"""

from .banking import (
    bank_server,
    banking_schemas,
    build_banking_system,
    check_consistency,
    debit_credit_input,
    debit_credit_program,
    install_banking,
    populate_banking,
)
from .manufacturing import (
    GLOBAL_FILES,
    LOCAL_FILES,
    MANUFACTURING_NODES,
    ManufacturingApp,
    build_manufacturing_system,
)
from .order_entry import (
    install_order_entry,
    order_entry_schemas,
    order_server,
    populate_order_entry,
)

__all__ = [
    "GLOBAL_FILES",
    "LOCAL_FILES",
    "MANUFACTURING_NODES",
    "ManufacturingApp",
    "bank_server",
    "banking_schemas",
    "build_banking_system",
    "build_manufacturing_system",
    "check_consistency",
    "debit_credit_input",
    "debit_credit_program",
    "install_banking",
    "install_order_entry",
    "order_entry_schemas",
    "order_server",
    "populate_banking",
    "populate_order_entry",
]
