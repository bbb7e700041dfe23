package etree

// AmalgamateTracked exposes amalgamate, with the stored entries it tracked
// per output supernode, to the external accounting test.
var AmalgamateTracked = amalgamate
